#include "heuristics/corrections.hpp"

#include <stdexcept>

#include "heuristics/candidate_index.hpp"

namespace dts {

std::string_view to_corrected_acronym(DynamicCriterion c) noexcept {
  switch (c) {
    case DynamicCriterion::kLargestComm: return "OOLCMR";
    case DynamicCriterion::kSmallestComm: return "OOSCMR";
    case DynamicCriterion::kMaxAcceleration: return "OOMAMR";
  }
  return "?";
}

void execute_corrected(const CompiledInstance& ci,
                       std::span<const TaskId> base_order,
                       DynamicCriterion criterion, Engine& engine,
                       Schedule& out, SelectionStats* stats) {
  CandidateIndex index(ci, base_order, criterion, out);
  while (!index.empty()) {
    std::size_t pos = index.head();
    if (!index.eligible(pos) || !engine.fits(ci.mem(base_order[pos]))) {
      // The head is blocked by memory or by an unscheduled predecessor:
      // dynamic correction over the eligible fitting tasks.
      pos = index.pick(engine);
      if (pos == CandidateIndex::npos) {
        index.wait("execute_corrected", engine);
        continue;
      }
    }
    index.start(pos, engine);
  }
  if (stats != nullptr) *stats += index.stats();
}

Schedule schedule_corrected_with_order(const Instance& inst,
                                       std::span<const TaskId> base_order,
                                       DynamicCriterion criterion,
                                       Mem capacity) {
  if (base_order.size() != inst.size()) {
    throw std::invalid_argument(
        "schedule_corrected_with_order: base order must cover all tasks");
  }
  const CompiledInstance ci(inst);
  Engine engine(ci, capacity);
  Schedule sched(inst.size());
  execute_corrected(ci, base_order, criterion, engine, sched);
  return sched;
}

}  // namespace dts
