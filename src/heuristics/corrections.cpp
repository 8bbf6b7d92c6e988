#include "heuristics/corrections.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/johnson.hpp"
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

  // DAG: ready floors vary per task, so every correction scans the
  // pending tasks whose predecessors are all scheduled.
  std::vector<TaskId> pending(base_order.begin(), base_order.end());
  std::vector<TaskId> fitting;
  std::vector<Time> floors;  // aligned with `fitting`
  fitting.reserve(pending.size());
  floors.reserve(pending.size());

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
    fitting.clear();
    floors.clear();
    bool any_ready = false;
    for (TaskId id : pending) {
      Time ready = 0.0;
      if (!detail::deps_ready(ci, out, id, ready)) continue;
      any_ready = true;
      if (engine.fits(ci.mem(id))) {
        fitting.push_back(id);
        floors.push_back(ready);
      }
    }
    if (fitting.empty()) {
      if (!any_ready) {
        detail::throw_unready_pending("execute_corrected", ci, out, pending);
      }
      if (!engine.advance_to_next_release()) {
        throw std::invalid_argument(
            "execute_corrected: a pending task exceeds the memory capacity");
      }
      continue;
    }
    const TaskId chosen =
        pick_candidate(ci, engine, fitting, criterion, floors);
    const std::size_t k = static_cast<std::size_t>(
        std::find(fitting.begin(), fitting.end(), chosen) - fitting.begin());
    const TaskTimes tt = engine.start(chosen, floors[k]);
    out.set(chosen, tt.comm_start, tt.comp_start);
    pending.erase(std::find(pending.begin(), pending.end(), chosen));
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

Schedule schedule_corrected(const Instance& inst, DynamicCriterion criterion,
                            Mem capacity) {
  std::vector<TaskId> base = johnson_order(inst);
  if (inst.has_dependencies()) base = legalize_order(inst, base);
  return schedule_corrected_with_order(inst, base, criterion, capacity);
}

}  // namespace dts
