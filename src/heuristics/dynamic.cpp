#include "heuristics/dynamic.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "heuristics/candidate_index.hpp"

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

namespace detail {

bool deps_ready(const CompiledInstance& ci, const Schedule& out, TaskId id,
                Time& ready) {
  for (const TaskId dep : ci.deps(id)) {
    const TaskTimes& pred = out[dep];
    if (!pred.scheduled()) return false;
    ready = std::max(ready, pred.comp_start + ci.comp(dep));
  }
  return true;
}

namespace {

/// Cold error funnel for the cross-batch deadlock: every pending task
/// waits on a predecessor that is neither pending nor scheduled.
[[noreturn]] void throw_unready_pending(const char* who,
                                        const CompiledInstance& ci,
                                        const Schedule& out,
                                        std::span<const TaskId> pending) {
  for (const TaskId id : pending) {
    for (const TaskId dep : ci.deps(id)) {
      if (!out[dep].scheduled()) {
        throw std::invalid_argument(
            std::string(who) + ": task " + std::to_string(id) +
            " waits on predecessor " + std::to_string(dep) +
            " which is neither scheduled nor pending here");
      }
    }
  }
  throw std::logic_error(std::string(who) + ": no pending task is ready");
}

}  // namespace

void ReadyPicker::step(const char* who, const CompiledInstance& ci,
                       DynamicCriterion criterion, Engine& engine,
                       Schedule& out) {
  fitting.clear();
  floors.clear();
  bool any_ready = false;
  for (TaskId id : pending) {
    Time ready = 0.0;
    if (!deps_ready(ci, out, id, ready)) continue;
    any_ready = true;
    if (engine.fits(ci.mem(id))) {
      fitting.push_back(id);
      floors.push_back(ready);
    }
  }
  if (fitting.empty()) {
    if (!any_ready) throw_unready_pending(who, ci, out, pending);
    if (!engine.advance_to_next_release()) {
      throw std::invalid_argument(
          std::string(who) + ": a pending task exceeds the memory capacity");
    }
    return;
  }
  const TaskId chosen = pick_candidate(ci, engine, fitting, criterion, floors);
  const std::size_t k = static_cast<std::size_t>(
      std::find(fitting.begin(), fitting.end(), chosen) - fitting.begin());
  const TaskTimes tt = engine.start(chosen, floors[k]);
  out.set(chosen, tt.comm_start, tt.comp_start);
  pending.erase(std::find(pending.begin(), pending.end(), chosen));
}

}  // namespace detail

void execute_dynamic(const CompiledInstance& ci, std::span<const TaskId> ids,
                     DynamicCriterion criterion, Engine& engine,
                     Schedule& out, SelectionStats* stats) {
  if (!ci.has_dependencies()) {
    CandidateIndex index(ci, ids, criterion);
    while (!index.empty()) {
      const std::size_t pos = index.pick(engine);
      if (pos == CandidateIndex::npos) {
        if (!engine.advance_to_next_release()) {
          throw std::invalid_argument(
              "execute_dynamic: a pending task exceeds the memory capacity");
        }
        continue;
      }
      const TaskTimes tt = engine.start(ids[pos]);
      out.set(ids[pos], tt.comm_start, tt.comp_start);
      index.remove(pos);
    }
    if (stats != nullptr) *stats += index.stats();
    return;
  }

  detail::ReadyPicker picker{{ids.begin(), ids.end()}, {}, {}};
  while (!picker.pending.empty()) {
    picker.step("execute_dynamic", ci, criterion, engine, out);
  }
}

}  // namespace dts
