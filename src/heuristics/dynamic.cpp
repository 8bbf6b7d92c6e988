#include "heuristics/dynamic.hpp"

#include <algorithm>

#include "heuristics/candidate_index.hpp"
#include "support/tolerance.hpp"

namespace dts {

std::string_view to_acronym(DynamicCriterion c) noexcept {
  switch (c) {
    case DynamicCriterion::kLargestComm: return "LCMR";
    case DynamicCriterion::kSmallestComm: return "SCMR";
    case DynamicCriterion::kMaxAcceleration: return "MAMR";
  }
  return "?";
}

namespace {

/// Strictly better under the criterion (used after the idle filter);
/// CompiledInstance::acceleration replicates Task::acceleration.
bool criterion_better(const CompiledInstance& ci, TaskId a, TaskId b,
                      DynamicCriterion c) {
  switch (c) {
    case DynamicCriterion::kLargestComm: return ci.comm(a) > ci.comm(b);
    case DynamicCriterion::kSmallestComm: return ci.comm(a) < ci.comm(b);
    case DynamicCriterion::kMaxAcceleration:
      return ci.acceleration(a) > ci.acceleration(b);
  }
  return false;
}

}  // namespace

TaskId pick_candidate(const CompiledInstance& ci, const Engine& engine,
                      std::span<const TaskId> candidates,
                      DynamicCriterion criterion, std::span<const Time> ready) {
  const Time now = engine.now();
  const Time comp_avail = engine.comp_available();
  TaskId best = kInvalidTask;
  Time best_idle = kInfiniteTime;
  for (std::size_t k = 0; k < candidates.size(); ++k) {
    const TaskId id = candidates[k];
    // The transfer would start at max(now, channel clock), floored at
    // the candidate's predecessor completion instant when given.
    Time start = std::max(now, engine.comm_available(ci.channel(id)));
    if (!ready.empty()) start = std::max(start, ready[k]);
    const Time idle = induced_idle(start, ci.comm(id), comp_avail);
    const bool strictly_less_idle = best != kInvalidTask && definitely_less(idle, best_idle);
    const bool tied_idle = best != kInvalidTask &&
                           !definitely_less(idle, best_idle) &&
                           !definitely_less(best_idle, idle);
    if (best == kInvalidTask || strictly_less_idle ||
        (tied_idle && criterion_better(ci, id, best, criterion))) {
      best = id;
      best_idle = idle;
    }
  }
  return best;
}

void execute_dynamic(const CompiledInstance& ci, std::span<const TaskId> ids,
                     DynamicCriterion criterion, Engine& engine,
                     Schedule& out, SelectionStats* stats) {
  CandidateIndex index(ci, ids, criterion, out);
  while (!index.empty()) {
    const std::size_t pos = index.pick(engine);
    if (pos == CandidateIndex::npos) {
      index.wait("execute_dynamic", engine);
    } else {
      index.start(pos, engine);
    }
  }
  if (stats != nullptr) *stats += index.stats();
}

}  // namespace dts
