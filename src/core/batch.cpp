#include "core/batch.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "core/compiled.hpp"
#include "core/job.hpp"

namespace dts {

namespace {

/// Batch boundaries walk this sequence. On a DAG the topological order
/// replaces raw submission so a predecessor always lands in an earlier
/// (or the same) batch — cross-batch readiness then flows through the
/// shared Schedule. On an edge-free instance it *is* submission order.
std::vector<TaskId> batch_sequence(const Instance& inst) {
  return inst.has_dependencies() ? inst.topological_order()
                                 : inst.submission_order();
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
    run_heuristic_on(id, inst.subset(ids), compiled, ids, engine, sched);
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
    const Instance scope = inst.subset(ids);

    const auto evaluate = [&](std::size_t k) {
      Trial& trial = trials[k];
      trial.engine.reset(compiled, capacity, &carried);
      run_heuristic_on(candidates[k], scope, compiled, ids, trial.engine,
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
