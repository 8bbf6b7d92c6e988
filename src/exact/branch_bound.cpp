#include "exact/branch_bound.hpp"

#include <algorithm>
#include <stdexcept>
#include <tuple>

#include "core/compiled.hpp"
#include "support/contract.hpp"
#include "support/tolerance.hpp"

namespace dts {

namespace {

std::tuple<Time, Time, Mem, ChannelId> value_key(const Task& t) {
  return {t.comm, t.comp, t.mem, t.channel};
}

/// Channel count the co-simulation tracks: every engine the instance's
/// tasks reference plus every clock the carried snapshot holds (an idle
/// carried engine must keep its clock through the window).
std::size_t tracked_channels(const Instance& inst,
                             const Engine::Snapshot& initial) {
  return std::max(inst.num_channels(), initial.comm_available.size());
}

/// Reusable buffers for the pair co-simulation. best_pair_order runs it
/// ~(n!)^2 times; assign() below reuses capacity, so a warm scratch makes
/// each pair allocation-free.
struct PairScratch {
  std::vector<Time> link_free;
  std::vector<std::pair<Time, Mem>> releases;
  std::vector<Time> comm_suffix;
  std::vector<Time> comp_suffix;
  std::vector<Time> comm_start;
  std::vector<Time> comm_end;
  std::vector<Time> comp_end;  ///< -1 until the computation is scheduled
  std::vector<unsigned char> started;
  std::vector<Time> candidate_times;
};

/// The co-simulation itself, over the SoA arrays with caller-owned
/// buffers. Arithmetic is identical to the original per-Task formulation;
/// only the data layout changed.
std::optional<Time> simulate_pair_order_impl(
    const CompiledInstance& ci, std::span<const TaskId> comm_order,
    std::span<const TaskId> comp_order, Mem capacity,
    const Engine::Snapshot& initial, Time abort_at, Schedule& out,
    PairScratch& s, std::span<const Time> ready_floors = {}) {
  const std::size_t n = ci.size();
  const std::size_t nch =
      std::max(ci.num_channels(), initial.comm_available.size());
  const bool dag = ci.has_dependencies();

  // One availability clock per copy engine; engines the snapshot does not
  // cover become free at the snapshot's decision instant.
  s.link_free.assign(initial.comm_available.begin(),
                     initial.comm_available.end());
  s.link_free.resize(nch, initial.now);
  // comm_order is the chronological order of transfer starts: each start
  // is >= the previous one (and >= the snapshot instant, before which the
  // snapshot no longer tracks released memory).
  Time frontier = initial.now;
  Time proc_free = initial.comp_available;

  // Memory bookkeeping. A task holds memory from its transfer start; its
  // release instant becomes known once its computation is scheduled.
  // Carried-in tasks arrive with known release instants.
  s.releases.assign(initial.active.begin(), initial.active.end());
  Mem indefinite = 0.0;  // transfers started, computation not yet scheduled

  const auto used_at = [&](Time t) {
    Mem used = indefinite;
    for (const auto& [end, mem] : s.releases) {
      if (t < end) used += mem;  // released at its exact end, as the engine
    }
    return used;
  };

  // Suffix loads for pruning: remaining transfer time per copy engine
  // (transfers sharing an engine serialize) and remaining computation.
  s.comm_suffix.assign((n + 1) * nch, 0.0);
  s.comp_suffix.assign(n + 1, 0.0);
  for (std::size_t k = n; k-- > 0;) {
    for (std::size_t ch = 0; ch < nch; ++ch) {
      s.comm_suffix[k * nch + ch] = s.comm_suffix[(k + 1) * nch + ch];
    }
    s.comm_suffix[k * nch + ci.channel(comm_order[k])] +=
        ci.comm(comm_order[k]);
    s.comp_suffix[k] = s.comp_suffix[k + 1] + ci.comp(comp_order[k]);
  }

  s.comm_start.assign(n, -1.0);
  s.comm_end.assign(n, -1.0);
  if (dag) s.comp_end.assign(n, -1.0);
  s.started.assign(n, 0);

  Time makespan = 0.0;
  std::size_t i = 0;  // next transfer in comm_order
  std::size_t j = 0;  // next computation in comp_order

  while (i < n || j < n) {
    bool progress = false;

    // The processor serves its sequence as soon as data is present.
    while (j < n && s.started[comp_order[j]]) {
      const TaskId v = comp_order[j];
      const Time start = std::max(proc_free, s.comm_end[v]);
      const Time e = start + ci.comp(v);
      out.set(v, s.comm_start[v], start);
      proc_free = e;
      makespan = std::max(makespan, e);
      if (dag) s.comp_end[v] = e;
      indefinite -= ci.mem(v);
      s.releases.emplace_back(e, ci.mem(v));
      ++j;
      progress = true;
      if (approx_leq(abort_at, makespan) ||
          approx_leq(abort_at, proc_free + s.comp_suffix[j])) {
        return std::nullopt;  // cannot beat the incumbent
      }
    }

    // Each engine serves its induced sequence at the earliest
    // memory-feasible instant computable from what is known now; the
    // global order fixes which engine commits next.
    if (i < n) {
      const TaskId u = comm_order[i];
      const ChannelId u_ch = ci.channel(u);
      const Mem u_mem = ci.mem(u);
      for (std::size_t ch = 0; ch < nch; ++ch) {
        const Time remaining = s.comm_suffix[i * nch + ch];
        // A remaining transfer on `ch` starts >= both the engine clock and
        // the chronological frontier; its computation ends even later.
        if (remaining > 0.0 &&
            approx_leq(abort_at,
                       std::max(s.link_free[ch], frontier) + remaining)) {
          return std::nullopt;
        }
      }
      // Dependency gate: the transfer waits for every predecessor's
      // computation end. A predecessor whose computation is sequenced
      // behind this transfer in comp_order blocks it — if the processor
      // side cannot progress either, the pair is infeasible below,
      // exactly like the memory deadlock.
      Time dep_floor = ready_floors.empty() ? 0.0 : ready_floors[u];
      bool preds_done = true;
      if (dag) {
        for (const TaskId dep : ci.deps(u)) {
          if (s.comp_end[dep] < 0.0) {
            preds_done = false;
            break;
          }
          dep_floor = std::max(dep_floor, s.comp_end[dep]);
        }
      }
      if (!preds_done) {
        if (!progress) return std::nullopt;
        continue;
      }
      const Time lower =
          std::max(std::max(s.link_free[u_ch], frontier), dep_floor);
      s.candidate_times.clear();
      s.candidate_times.push_back(lower);
      for (const auto& [end, mem] : s.releases) {
        (void)mem;
        if (lower < end) s.candidate_times.push_back(end);
      }
      std::sort(s.candidate_times.begin(), s.candidate_times.end());
      for (const Time t : s.candidate_times) {
        if (approx_leq(used_at(t) + u_mem, capacity)) {
          // The exactness argument hinges on comm_order being the
          // chronological order of transfer starts: each committed start
          // may never precede the frontier, and the task's engine clock
          // only moves forward.
          DTS_ENSURE(t >= frontier,
                     "transfer starts must be monotone along the "
                     "chronological order");
          DTS_ENSURE(t >= s.link_free[u_ch],
                     "per-channel clock must be monotone along the "
                     "chronological order");
          DTS_AUDIT(approx_leq(used_at(t) + u_mem, capacity),
                    "memory bound exceeded at a committed transfer start");
          s.comm_start[u] = t;
          s.comm_end[u] = t + ci.comm(u);
          s.link_free[u_ch] = s.comm_end[u];
          frontier = t;
          s.started[u] = 1;
          indefinite += u_mem;
          ++i;
          progress = true;
          break;
        }
      }
    }

    if (!progress) {
      // The next transfer waits on memory that only a computation stuck
      // behind it can release: this order pair is infeasible.
      return std::nullopt;
    }
  }
  return makespan;
}

}  // namespace

std::optional<Time> simulate_pair_order(const Instance& inst,
                                        std::span<const TaskId> comm_order,
                                        std::span<const TaskId> comp_order,
                                        Mem capacity,
                                        const Engine::Snapshot& initial,
                                        Time abort_at, Schedule& out,
                                        std::span<const Time> ready_floors) {
  const std::size_t n = inst.size();
  if (comm_order.size() != n || comp_order.size() != n || out.size() != n) {
    throw std::invalid_argument("simulate_pair_order: size mismatch");
  }
  const CompiledInstance ci(inst);
  PairScratch scratch;
  return simulate_pair_order_impl(ci, comm_order, comp_order, capacity,
                                  initial, abort_at, out, scratch,
                                  ready_floors);
}

PairOrderResult best_pair_order(const Instance& inst, Mem capacity,
                                const PairOrderOptions& options) {
  if (inst.size() > options.max_n) {
    throw std::invalid_argument(
        "best_pair_order: instance too large (n=" + std::to_string(inst.size()) +
        ", max=" + std::to_string(options.max_n) + ")");
  }
  for (const Task& t : inst) {
    if (definitely_less(capacity, t.mem)) {
      throw std::invalid_argument("best_pair_order: task " +
                                  std::to_string(t.id) +
                                  " exceeds the memory capacity");
    }
  }

  const Engine::Snapshot initial =
      options.initial_state.value_or(Engine::Snapshot{});

  PairOrderResult result;
  result.makespan = options.upper_bound;
  bool found = false;

  if (inst.empty()) {
    result.makespan = 0.0;
    result.final_state = initial;
    return result;
  }

  // Dependency edges break the identical-task collapse (two value-equal
  // tasks may have different successors), so DAG instances enumerate full
  // permutations — ids break value ties — and skip the non-topological
  // ones: a feasible schedule's chronological transfer order and its
  // computation service order both place every task after its
  // predecessors (its transfer starts after the predecessor's computation
  // end, and its computation even later).
  const bool dag = inst.has_dependencies();
  const auto value_less = [&](TaskId a, TaskId b) {
    const auto ka = value_key(inst[a]);
    const auto kb = value_key(inst[b]);
    if (ka != kb) return ka < kb;
    return dag && a < b;
  };
  std::vector<TaskId> comm = inst.submission_order();
  std::sort(comm.begin(), comm.end(), value_less);

  Schedule scratch(inst.size());
  // Compile once; the pair buffers warm up on the first simulation and
  // every later pair runs allocation-free.
  const CompiledInstance compiled(inst);
  PairScratch pair_scratch;
  // Deadline/cancellation poll, amortized to every 256 simulated pairs
  // (the callback may read a clock). Polling at pair 0 makes an
  // already-fired token return before any work.
  const auto stop_requested = [&options, &result] {
    return options.should_stop && (result.pairs_simulated & 0xFFu) == 0 &&
           options.should_stop();
  };
  do {
    if (dag && !inst.is_topological_order(comm)) continue;
    std::vector<TaskId> comp = comm;  // start each inner scan from sorted
    std::sort(comp.begin(), comp.end(), value_less);
    do {
      if (dag && !inst.is_topological_order(comp)) continue;
      if (stop_requested()) {
        result.stopped = true;
        break;
      }
      ++result.pairs_simulated;
      const std::optional<Time> ms = simulate_pair_order_impl(
          compiled, comm, comp, capacity, initial, result.makespan, scratch,
          pair_scratch, options.ready_times);
      if (ms && definitely_less(*ms, result.makespan)) {
        found = true;
        result.makespan = *ms;
        result.schedule = scratch;
        result.comm_order = comm;
        result.comp_order = comp;
        if (options.lower_bound > 0.0 &&
            approx_leq(result.makespan, options.lower_bound)) {
          // The incumbent matches a proven lower bound: optimal, the
          // remaining pairs cannot improve on it.
          result.proved_optimal = true;
          break;
        }
      }
    } while (std::next_permutation(comp.begin(), comp.end(), value_less));
    if (result.stopped || result.proved_optimal) break;
  } while (std::next_permutation(comm.begin(), comm.end(), value_less));

  if (!found) {
    if (result.stopped) {
      // Nothing feasible seen before the stop: the caller's upper bound (if
      // any) was never confirmed, so report "no incumbent" as documented.
      result.makespan = kInfiniteTime;
      return result;
    }
    // Either the caller's upper bound was already optimal or no pair is
    // feasible; with capacity >= max task memory a feasible pair always
    // exists (any common order), so the former.
    if (options.upper_bound == kInfiniteTime) {
      throw std::logic_error("best_pair_order: search found no schedule");
    }
    return result;
  }

  // Reconstruct the final engine state of the winning pair.
  {
    Engine::Snapshot snap;
    snap.comm_available = initial.comm_available;
    snap.comm_available.resize(tracked_channels(inst, initial), initial.now);
    Time proc_free = initial.comp_available;
    for (TaskId id = 0; id < inst.size(); ++id) {
      Time& clock = snap.comm_available[inst[id].channel];
      clock = std::max(clock, result.schedule[id].comm_start + inst[id].comm);
      proc_free =
          std::max(proc_free, result.schedule[id].comp_start + inst[id].comp);
    }
    snap.comp_available = proc_free;
    // Resuming from this snapshot issues transfers at or after the
    // earliest engine-free instant; memory released before it needs no
    // tracking. (With one channel this is exactly the link clock.)
    snap.now = std::max(initial.now,
                        *std::min_element(snap.comm_available.begin(),
                                          snap.comm_available.end()));
    snap.active = initial.active;
    for (TaskId id = 0; id < inst.size(); ++id) {
      snap.active.emplace_back(result.schedule[id].comp_start + inst[id].comp,
                               inst[id].mem);
    }
    std::erase_if(snap.active, [&](const std::pair<Time, Mem>& a) {
      return a.first <= snap.now;
    });
    // The carried-over state may only move forward relative to what was
    // carried in — the window solver chains these snapshots, and a
    // regressed clock would issue later windows in the past.
    DTS_ENSURE(snap.now >= initial.now,
               "reconstructed state must not regress the decision instant");
    DTS_AUDIT_ONLY(
        for (std::size_t ch = 0; ch < initial.comm_available.size(); ++ch) {
          DTS_AUDIT(snap.comm_available[ch] >= initial.comm_available[ch],
                    "reconstructed channel clock must not regress");
        } DTS_AUDIT(snap.comp_available >= initial.comp_available,
                    "reconstructed processor clock must not regress");)
    result.final_state = std::move(snap);
  }
  return result;
}

}  // namespace dts
