#include "heuristics/corrections.hpp"

#include <algorithm>
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
  if (!ci.has_dependencies()) {
    CandidateIndex index(ci, base_order, criterion);
    while (!index.empty()) {
      std::size_t pos = index.head();
      if (!engine.fits(ci.mem(base_order[pos]))) {
        // The head is blocked by memory: dynamic correction over the
        // fitting tasks.
        pos = index.pick(engine);
        if (pos == CandidateIndex::npos) {
          if (!engine.advance_to_next_release()) {
            throw std::invalid_argument(
                "execute_corrected: a pending task exceeds the memory "
                "capacity");
          }
          continue;
        }
      }
      const TaskTimes tt = engine.start(base_order[pos]);
      out.set(base_order[pos], tt.comm_start, tt.comp_start);
      index.remove(pos);
    }
    if (stats != nullptr) *stats += index.stats();
    return;
  }

  detail::ReadyPicker picker{{base_order.begin(), base_order.end()}, {}, {}};
  std::vector<TaskId>& pending = picker.pending;
  while (!pending.empty()) {
    const TaskId head = pending.front();
    Time head_ready = 0.0;
    if (detail::deps_ready(ci, out, head, head_ready) &&
        engine.fits(ci.mem(head))) {
      // The static plan remains viable: follow it.
      const TaskTimes tt = engine.start(head, head_ready);
      out.set(head, tt.comm_start, tt.comp_start);
      pending.erase(pending.begin());
      continue;
    }
    // The head is blocked by memory or by an unscheduled predecessor:
    // dynamic correction over the runnable fitting tasks.
    picker.step("execute_corrected", ci, criterion, engine, out);
  }
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
