#include "core/batch.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/compiled.hpp"
#include "core/job.hpp"
#include "core/johnson.hpp"
#include "heuristics/bin_packing.hpp"
#include "heuristics/corrections.hpp"
#include "heuristics/dynamic.hpp"
#include "heuristics/gilmore_gomory.hpp"
#include "heuristics/static_orders.hpp"

namespace dts {

namespace {

/// Computes the heuristic's processing order restricted to `ids` by
/// building the subset instance and mapping positions back to real ids.
std::vector<TaskId> order_for_batch(HeuristicId id, const Instance& inst,
                                    std::span<const TaskId> ids, Mem capacity) {
  const Instance sub = inst.subset(ids);
  std::vector<TaskId> local;
  switch (id) {
    case HeuristicId::kOS:
      local = sub.submission_order();
      break;
    case HeuristicId::kOOSIM:
      local = static_order(sub, StaticOrderPolicy::kJohnson);
      break;
    case HeuristicId::kIOCMS:
      local = static_order(sub, StaticOrderPolicy::kIncreasingComm);
      break;
    case HeuristicId::kDOCPS:
      local = static_order(sub, StaticOrderPolicy::kDecreasingComp);
      break;
    case HeuristicId::kIOCCS:
      local = static_order(sub, StaticOrderPolicy::kIncreasingCommPlusComp);
      break;
    case HeuristicId::kDOCCS:
      local = static_order(sub, StaticOrderPolicy::kDecreasingCommPlusComp);
      break;
    case HeuristicId::kGG:
      local = gilmore_gomory_order(sub);
      break;
    case HeuristicId::kBP:
      local = bin_packing_order(sub, capacity);
      break;
    default:
      throw std::logic_error("order_for_batch: not a static heuristic");
  }
  // Internal edges survive subset(); repair the policy's order against
  // them (identity on edge-free batches).
  if (sub.has_dependencies()) local = legalize_order(sub, local);
  std::vector<TaskId> global(local.size());
  for (std::size_t k = 0; k < local.size(); ++k) global[k] = ids[local[k]];
  return global;
}

/// Batch boundaries walk this sequence. On a DAG the topological order
/// replaces raw submission so a predecessor always lands in an earlier
/// (or the same) batch — cross-batch readiness then flows through the
/// shared Schedule. On an edge-free instance it *is* submission order.
std::vector<TaskId> batch_sequence(const Instance& inst) {
  return inst.has_dependencies() ? inst.topological_order()
                                 : inst.submission_order();
}

}  // namespace

namespace {

[[noreturn]] void throw_unissued_pred(TaskId id, TaskId dep) {
  throw std::invalid_argument("schedule_in_batches: task " +
                              std::to_string(id) +
                              " issued before its predecessor " +
                              std::to_string(dep));
}

[[noreturn]] void throw_never_fits(const CompiledInstance& ci, TaskId id,
                                   Mem capacity) {
  throw std::invalid_argument(
      "schedule_in_batches: task " + std::to_string(id) + " requires " +
      std::to_string(ci.mem(id)) + " bytes but capacity is " +
      std::to_string(capacity));
}

/// Issues `order` verbatim on `engine`: each task waits for memory and
/// for its predecessors' computation ends, read from `sched` (so edges
/// into earlier batches sharing it are honored).
void issue_in_order(const CompiledInstance& ci, std::span<const TaskId> order,
                    Engine& engine, Schedule& sched) {
  for (const TaskId id : order) {
    Time ready = 0.0;
    for (const TaskId dep : ci.deps(id)) {
      if (!sched[dep].scheduled()) throw_unissued_pred(id, dep);
      ready = std::max(ready, sched[dep].comp_start + ci.comp(dep));
    }
    while (!engine.fits(ci.mem(id))) {
      if (!engine.advance_to_next_release()) {
        throw_never_fits(ci, id, engine.capacity());
      }
    }
    const TaskTimes tt = engine.start(id, ready);
    sched.set(id, tt.comm_start, tt.comp_start);
  }
}

/// Schedules one batch with `id`, continuing from `engine`. `ci` is the
/// compiled form of `inst`, built once per solve so every branch steps
/// the engine over the SoA arrays instead of recompiling (or chasing Task
/// records) per batch.
void run_batch(HeuristicId id, const Instance& inst,
               const CompiledInstance& ci, std::span<const TaskId> ids,
               Mem capacity, Engine& engine, Schedule& sched) {
  switch (info(id).category) {
    case HeuristicCategory::kBaseline:
    case HeuristicCategory::kStatic: {
      const std::vector<TaskId> order = order_for_batch(id, inst, ids, capacity);
      issue_in_order(ci, order, engine, sched);
      break;
    }
    case HeuristicCategory::kDynamic: {
      const DynamicCriterion crit =
          id == HeuristicId::kLCMR   ? DynamicCriterion::kLargestComm
          : id == HeuristicId::kSCMR ? DynamicCriterion::kSmallestComm
                                     : DynamicCriterion::kMaxAcceleration;
      execute_dynamic(ci, ids, crit, engine, sched);
      break;
    }
    case HeuristicCategory::kCorrected: {
      const DynamicCriterion crit =
          id == HeuristicId::kOOLCMR   ? DynamicCriterion::kLargestComm
          : id == HeuristicId::kOOSCMR ? DynamicCriterion::kSmallestComm
                                       : DynamicCriterion::kMaxAcceleration;
      // Base order: Johnson restricted to this batch.
      const std::vector<TaskId> base =
          order_for_batch(HeuristicId::kOOSIM, inst, ids, capacity);
      execute_corrected(ci, base, crit, engine, sched);
      break;
    }
  }
}

}  // namespace

Schedule schedule_in_batches(HeuristicId id, const Instance& inst, Mem capacity,
                             std::size_t batch_size) {
  if (batch_size == 0) {
    throw std::invalid_argument("schedule_in_batches: batch_size must be > 0");
  }
  const std::vector<TaskId> submission = batch_sequence(inst);
  const CompiledInstance compiled(inst);
  Engine engine(compiled, capacity);
  Schedule sched(inst.size());

  for (std::size_t lo = 0; lo < submission.size(); lo += batch_size) {
    const std::size_t hi = std::min(lo + batch_size, submission.size());
    const std::span<const TaskId> ids(&submission[lo], hi - lo);
    run_batch(id, inst, compiled, ids, capacity, engine, sched);
  }
  return sched;
}

BatchAutoResult schedule_in_batches_auto(
    const Instance& inst, Mem capacity, std::size_t batch_size,
    std::span<const HeuristicId> candidates, Executor* executor) {
  if (batch_size == 0) {
    throw std::invalid_argument(
        "schedule_in_batches_auto: batch_size must be > 0");
  }
  if (candidates.empty()) {
    throw std::invalid_argument(
        "schedule_in_batches_auto: need at least one candidate");
  }
  const std::vector<TaskId> submission = batch_sequence(inst);
  const CompiledInstance compiled(inst);
  BatchAutoResult result;
  result.schedule = Schedule(inst.size());
  Engine::Snapshot carried;
  carried.comm_available.assign(inst.num_channels(), 0.0);

  /// One candidate's simulation of the current batch from the carried
  /// state — independent of every other trial, so they may run
  /// concurrently on an executor. Each trial's schedule is sized once and
  /// reused across batches: a batch only writes its own ids, and only
  /// those ids are folded into the committed schedule, so the stale
  /// entries from losing trials of earlier batches are never read. The
  /// trial's engine persists too, so restoring the carried state costs
  /// O(in-flight tasks) and no allocation per batch.
  struct Trial {
    Schedule schedule;
    Engine engine;
  };
  std::vector<Trial> trials(candidates.size());
  for (Trial& trial : trials) trial.schedule = Schedule(inst.size());

  for (std::size_t lo = 0; lo < submission.size(); lo += batch_size) {
    const std::size_t hi = std::min(lo + batch_size, submission.size());
    const std::span<const TaskId> ids(&submission[lo], hi - lo);

    const auto evaluate = [&](std::size_t k) {
      Trial& trial = trials[k];
      trial.engine.reset(compiled, capacity, &carried);
      run_batch(candidates[k], inst, compiled, ids, capacity, trial.engine,
                trial.schedule);
    };
    if (executor && candidates.size() > 1) {
      executor->for_each(candidates.size(), evaluate);
    } else {
      for (std::size_t k = 0; k < candidates.size(); ++k) evaluate(k);
    }

    // Fold in candidate order with the strict-preference rule: identical
    // winner to evaluating and comparing one candidate at a time.
    std::size_t best = 0;
    for (std::size_t k = 1; k < candidates.size(); ++k) {
      const Engine& e = trials[k].engine;
      const Engine& b = trials[best].engine;
      const bool better =
          definitely_less(e.comp_available(), b.comp_available()) ||
          (!definitely_less(b.comp_available(), e.comp_available()) &&
           definitely_less(e.comm_available(), b.comm_available()));
      if (better) best = k;
    }
    for (TaskId id : ids) result.schedule[id] = trials[best].schedule[id];
    result.winners.push_back(candidates[best]);
    carried = trials[best].engine.snapshot();
    if (inst.has_dependencies()) {
      // Later batches read predecessor completion times from their trial
      // schedule; overwrite every trial's entries for this batch with the
      // committed winner's so losing-trial starts are never consulted.
      for (Trial& trial : trials) {
        for (TaskId id : ids) trial.schedule[id] = result.schedule[id];
      }
    }
  }
  return result;
}

}  // namespace dts
