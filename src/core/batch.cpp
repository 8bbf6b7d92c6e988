#include "core/batch.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/compiled.hpp"
#include "core/job.hpp"
#include "support/tolerance.hpp"

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

/// One candidate's simulation of the current batch from the committed
/// state — independent of every other trial, so they may run concurrently
/// on an executor. Each trial keeps a schedule and a live engine across
/// batches. After the fold every losing trial takes the winner's engine
/// and the winner's entries for the batch, so each trial schedule is the
/// committed schedule (later batches on a DAG read predecessor ends from
/// it) and a single candidate copies nothing: it walks one live engine.
struct Trial {
  Schedule schedule;
  Engine engine;
};

/// Runs every candidate's trial of one batch on `executor`. Kept out of
/// the walk's loop: a lambda there that captures the loop's locals slowed
/// the serial single-candidate walk by ~5% at batch size 1 (HF, 8,000
/// tasks, Release build on a 4-core x86 host).
void run_trials_on(Executor& executor, std::span<const HeuristicId> candidates,
                   std::vector<Trial>& trials, const Instance& scope,
                   const CompiledInstance& compiled,
                   std::span<const TaskId> ids) {
  executor.for_each(candidates.size(), [&](std::size_t k) {
    run_heuristic_on(candidates[k], scope, compiled, ids, trials[k].engine,
                     trials[k].schedule);
  });
}

}  // namespace

Schedule schedule_in_batches(HeuristicId id, const Instance& inst, Mem capacity,
                             std::size_t batch_size) {
  if (batch_size == 0) {
    throw std::invalid_argument("schedule_in_batches: batch_size must be > 0");
  }
  const HeuristicId only[] = {id};
  return schedule_in_batches_auto(inst, capacity, batch_size, only).schedule;
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
  result.winners.reserve((submission.size() + batch_size - 1) / batch_size);

  std::vector<Trial> trials(candidates.size());
  for (Trial& trial : trials) {
    trial.schedule = Schedule(inst.size());
    trial.engine.reset(compiled, capacity);
  }

  for (std::size_t lo = 0; lo < submission.size(); lo += batch_size) {
    const std::size_t hi = std::min(lo + batch_size, submission.size());
    const std::span<const TaskId> ids(&submission[lo], hi - lo);
    const Instance scope = inst.subset(ids);

    if (executor && candidates.size() > 1) {
      run_trials_on(*executor, candidates, trials, scope, compiled, ids);
    } else {
      for (std::size_t k = 0; k < candidates.size(); ++k) {
        run_heuristic_on(candidates[k], scope, compiled, ids, trials[k].engine,
                         trials[k].schedule);
      }
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
    const Trial& winner = trials[best];
    result.winners.push_back(candidates[best]);
    for (std::size_t k = 0; k < trials.size(); ++k) {
      if (k == best) continue;
      trials[k].engine = winner.engine;
      for (TaskId id : ids) trials[k].schedule[id] = winner.schedule[id];
    }
  }
  result.schedule = std::move(trials.front().schedule);
  return result;
}

}  // namespace dts
