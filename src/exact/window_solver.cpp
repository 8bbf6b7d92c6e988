#include "exact/window_solver.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/compiled.hpp"
#include "exact/branch_bound.hpp"
#include "exact/exhaustive.hpp"
#include "exact/lower_bounds.hpp"
#include "support/contract.hpp"

namespace dts {

namespace {

/// Lower bound on a window's absolute completion time under the carried
/// engine state. The fresh-instance capacity-aware bound stays valid (a
/// carried state only delays starts — clocks are nonnegative and held
/// memory only postpones transfers), and the carried clocks strengthen
/// it: the processor serves every window computation after its carried
/// free instant, and each copy engine pushes its window transfers after
/// its carried clock with at least the cheapest trailing computation of
/// that engine's tasks.
Time carried_window_bound(const Instance& sub, Mem capacity,
                          const Engine::Snapshot& carried) {
  Time bound = capacity_aware_bounds(sub, capacity).combined;
  Time sum_comp = 0.0;
  for (const Task& t : sub) sum_comp += t.comp;
  bound = std::max(bound, carried.comp_available + sum_comp);
  for (ChannelId ch = 0; ch < sub.num_channels(); ++ch) {
    Time sum_comm = 0.0;
    Time min_comp = kInfiniteTime;
    for (const Task& t : sub) {
      if (t.channel != ch) continue;
      sum_comm += t.comm;
      min_comp = std::min(min_comp, t.comp);
    }
    if (min_comp == kInfiniteTime) continue;  // no window task on ch
    // A restored engine resumes from max(now, channel clock); channels
    // the snapshot does not cover start free at the decision instant.
    const Time clock =
        ch < carried.comm_available.size()
            ? std::max(carried.now, carried.comm_available[ch])
            : carried.now;
    bound = std::max(bound, clock + sum_comm + min_comp);
  }
  return bound;
}

/// Issues `ids` verbatim from the carried state (the drain and fallback
/// paths), committing their starts into `out`; returns the engine state
/// after them. `floors` (per position of `ids`, possibly empty) carries
/// edges into already committed tasks; edges among `ids` survive subset()
/// and are enforced by the engine.
Engine::Snapshot commit_in_order(const Instance& inst,
                                 std::span<const TaskId> ids, Mem capacity,
                                 const Engine::Snapshot& carried,
                                 std::span<const Time> floors, Schedule& out) {
  const Instance sub = inst.subset(ids);
  const CompiledInstance ci(sub);
  const std::vector<TaskId> order = sub.submission_order();
  Schedule local(sub.size());
  Engine engine;
  (void)evaluate_order(ci, order, capacity, engine, local, &carried, floors);
  for (TaskId k = 0; k < sub.size(); ++k) {
    out.set(ids[k], local[k].comm_start, local[k].comp_start);
  }
  return engine.snapshot();
}

}  // namespace

std::string window_heuristic_name(const WindowOptions& options) {
  std::string name = "lp." + std::to_string(options.window);
  if (options.mode == WindowMode::kPairOrder) name += "p";
  return name;
}

WindowedResult solve_windowed(const Instance& inst, Mem capacity,
                              const WindowOptions& options) {
  if (options.window == 0 || options.window > 8) {
    throw std::invalid_argument(
        "solve_windowed: window size must be in [1, 8]");
  }
  // On a DAG the windows walk a topological order so a predecessor always
  // lands in an earlier (or the same) window; edges inside a window
  // survive subset() and are enforced by the window optimizers, edges
  // into earlier windows become per-task ready floors computed from the
  // committed schedule. Edge-free instances keep raw submission order.
  const bool dag = inst.has_dependencies();
  const std::vector<TaskId> submission =
      dag ? inst.topological_order() : inst.submission_order();
  WindowedResult result;
  result.schedule = Schedule(inst.size());
  Engine::Snapshot carried;  // fresh start
  carried.comm_available.assign(inst.num_channels(), 0.0);

  // Transfer-start floors of one window's tasks (local ids): the latest
  // computation end among predecessors outside the window, all of which
  // are already committed in result.schedule.
  const auto window_floors = [&](std::span<const TaskId> ids) {
    std::vector<Time> floors(ids.size(), 0.0);
    bool any = false;
    for (std::size_t local = 0; local < ids.size(); ++local) {
      for (const TaskId dep : inst[ids[local]].deps) {
        const TaskTimes& pred = result.schedule[dep];
        if (!pred.scheduled()) continue;  // same window: internal edge
        floors[local] =
            std::max(floors[local], pred.comp_start + inst[dep].comp);
        any = true;
      }
    }
    if (!any) floors.clear();  // no cross-window edges: keep the fast path
    return floors;
  };

  const auto stop_requested = [&options] {
    return options.should_stop && options.should_stop();
  };

  for (std::size_t lo = 0; lo < submission.size(); lo += options.window) {
    const std::size_t hi =
        std::min(lo + options.window, submission.size());
    const std::span<const TaskId> ids(&submission[lo], hi - lo);

    if (!result.stopped && stop_requested()) result.stopped = true;
    if (result.stopped) {
      // Deadline or cancellation: drain the remaining tasks in submission
      // order so the caller still receives a complete feasible schedule.
      const std::span<const TaskId> rest(&submission[lo],
                                         submission.size() - lo);
      (void)commit_in_order(inst, rest, capacity, carried,
                            dag ? window_floors(rest) : std::vector<Time>{},
                            result.schedule);
      return result;
    }

    const Instance sub = inst.subset(ids);
    DTS_AUDIT_ONLY(const Engine::Snapshot audit_carried = carried;)
    if (options.mode == WindowMode::kCommonOrder) {
      ExhaustiveOptions ex;
      ex.max_n = options.window;
      ex.initial_state = carried;
      ex.executor = options.executor;
      if (dag) ex.ready_times = window_floors(ids);
      const ExhaustiveResult res = best_common_order(sub, capacity, ex);
      for (TaskId local = 0; local < sub.size(); ++local) {
        result.schedule.set(ids[local], res.schedule[local].comm_start,
                            res.schedule[local].comp_start);
      }
      carried = res.final_state;
    } else {
      PairOrderOptions po;
      po.max_n = options.window;
      po.initial_state = carried;
      po.should_stop = options.should_stop;
      if (dag) po.ready_times = window_floors(ids);
      if (options.use_lower_bounds) {
        po.lower_bound = carried_window_bound(sub, capacity, carried);
      }
      const PairOrderResult res = best_pair_order(sub, capacity, po);
      result.pairs_simulated += res.pairs_simulated;
      if (res.proved_optimal) ++result.windows_proved;
      if (res.stopped && res.makespan == kInfiniteTime) {
        // Stopped before this window produced an incumbent: fall back to
        // submission order for it (and, via the check above, the rest).
        result.stopped = true;
        carried = commit_in_order(
            inst, ids, capacity, carried,
            dag ? window_floors(ids) : std::vector<Time>{}, result.schedule);
        continue;
      }
      for (TaskId local = 0; local < sub.size(); ++local) {
        result.schedule.set(ids[local], res.schedule[local].comm_start,
                            res.schedule[local].comp_start);
      }
      carried = res.final_state;
      if (res.stopped) {
        result.stopped = true;
        continue;  // incumbent kept; remaining windows drain above
      }
    }
    // Chained snapshots carry the engine forward window to window; a
    // clock regressing past the previous carried state would let a later
    // window schedule transfers before memory this state no longer
    // tracks was released (the PR 3 snapshot bug class, at window scope).
    DTS_ENSURE(carried.now >= audit_carried.now,
               "carried decision instant must not regress across windows");
    DTS_AUDIT_ONLY(
        for (std::size_t ch = 0;
             ch < audit_carried.comm_available.size(); ++ch) {
          DTS_AUDIT(carried.comm_available.size() > ch &&
                        carried.comm_available[ch] >=
                            audit_carried.comm_available[ch],
                    "carried channel clock must not regress across windows");
        } for (TaskId local = 0; local < sub.size(); ++local) {
          DTS_AUDIT(result.schedule[ids[local]].comm_start >= 0.0,
                    "every task of an optimized window must be scheduled");
        })
    ++result.windows_optimized;
  }
  return result;
}

Schedule schedule_windowed(const Instance& inst, Mem capacity,
                           const WindowOptions& options) {
  return solve_windowed(inst, capacity, options).schedule;
}

}  // namespace dts
