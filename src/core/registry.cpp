#include "core/registry.hpp"

#include <array>
#include <optional>
#include <stdexcept>

#include "core/compiled.hpp"
#include "core/job.hpp"
#include "heuristics/bin_packing.hpp"
#include "heuristics/corrections.hpp"
#include "heuristics/dynamic.hpp"
#include "heuristics/gilmore_gomory.hpp"
#include "heuristics/static_orders.hpp"

namespace dts {

namespace {

constexpr std::array<HeuristicInfo, 14> kRegistry{{
    {HeuristicId::kOS, "OS", HeuristicCategory::kBaseline,
     "order of submission"},
    {HeuristicId::kOOSIM, "OOSIM", HeuristicCategory::kStatic,
     "Johnson (infinite-memory optimal) order under the capacity"},
    {HeuristicId::kIOCMS, "IOCMS", HeuristicCategory::kStatic,
     "non-decreasing communication time"},
    {HeuristicId::kDOCPS, "DOCPS", HeuristicCategory::kStatic,
     "non-increasing computation time"},
    {HeuristicId::kIOCCS, "IOCCS", HeuristicCategory::kStatic,
     "non-decreasing communication + computation"},
    {HeuristicId::kDOCCS, "DOCCS", HeuristicCategory::kStatic,
     "non-increasing communication + computation"},
    {HeuristicId::kGG, "GG", HeuristicCategory::kStatic,
     "Gilmore-Gomory optimal no-wait sequence"},
    {HeuristicId::kBP, "BP", HeuristicCategory::kStatic,
     "First-Fit memory bin packing"},
    {HeuristicId::kLCMR, "LCMR", HeuristicCategory::kDynamic,
     "largest communication among fitting, min-idle tasks"},
    {HeuristicId::kSCMR, "SCMR", HeuristicCategory::kDynamic,
     "smallest communication among fitting, min-idle tasks"},
    {HeuristicId::kMAMR, "MAMR", HeuristicCategory::kDynamic,
     "maximum CP/CM ratio among fitting, min-idle tasks"},
    {HeuristicId::kOOLCMR, "OOLCMR", HeuristicCategory::kCorrected,
     "Johnson order, diverting to largest-communication fitting task"},
    {HeuristicId::kOOSCMR, "OOSCMR", HeuristicCategory::kCorrected,
     "Johnson order, diverting to smallest-communication fitting task"},
    {HeuristicId::kOOMAMR, "OOMAMR", HeuristicCategory::kCorrected,
     "Johnson order, diverting to highest CP/CM fitting task"},
}};

}  // namespace

std::span<const HeuristicInfo> all_heuristics() noexcept { return kRegistry; }

std::vector<HeuristicId> all_heuristic_ids() {
  std::vector<HeuristicId> ids;
  ids.reserve(kRegistry.size());
  for (const auto& h : kRegistry) ids.push_back(h.id);
  return ids;
}

std::vector<HeuristicId> heuristics_in(HeuristicCategory cat) {
  std::vector<HeuristicId> ids;
  for (const auto& h : kRegistry) {
    if (h.category == cat) ids.push_back(h.id);
  }
  return ids;
}

const HeuristicInfo& info(HeuristicId id) noexcept {
  for (const auto& h : kRegistry) {
    if (h.id == id) return h;
  }
  return kRegistry[0];  // unreachable for valid ids
}

std::string_view name_of(HeuristicId id) noexcept { return info(id).name; }

std::string_view name_of(HeuristicCategory cat) noexcept {
  switch (cat) {
    case HeuristicCategory::kBaseline: return "Baseline";
    case HeuristicCategory::kStatic: return "Static";
    case HeuristicCategory::kDynamic: return "Dynamic";
    case HeuristicCategory::kCorrected: return "Static+Dynamic";
  }
  return "?";
}

std::optional<HeuristicId> heuristic_from_name(std::string_view name) noexcept {
  for (const auto& h : kRegistry) {
    if (h.name == name) return h.id;
  }
  return std::nullopt;
}

namespace {

/// `order`, an order over `scope`, repaired against its edges (identity
/// on edge-free tasks) and mapped to real ids: scope task k is `ids[k]`.
std::vector<TaskId> real_order(const Instance& scope,
                               std::vector<TaskId> order,
                               std::span<const TaskId> ids) {
  if (scope.has_dependencies()) order = legalize_order(scope, order);
  for (TaskId& id : order) id = ids[id];
  return order;
}

}  // namespace

void run_heuristic_on(HeuristicId id, const Instance& scope,
                      const CompiledInstance& ci, std::span<const TaskId> ids,
                      Engine& engine, Schedule& sched) {
  using C = DynamicCriterion;
  using P = StaticOrderPolicy;
  // What each heuristic is (§4.1-4.4): a static order issued verbatim, a
  // dynamic selection, or the Johnson order with dynamic corrections.
  const auto in_order = [&](std::vector<TaskId> order) {
    engine.issue_in_order(real_order(scope, std::move(order), ids), sched);
  };
  const auto static_in_order = [&](P policy) {
    in_order(static_order(scope, policy));
  };
  const auto dynamic = [&](C criterion) {
    execute_dynamic(ci, ids, criterion, engine, sched);
  };
  const auto corrected = [&](C criterion) {
    execute_corrected(
        ci, real_order(scope, static_order(scope, P::kJohnson), ids),
        criterion, engine, sched);
  };
  switch (id) {
    case HeuristicId::kOS: return static_in_order(P::kSubmission);
    case HeuristicId::kOOSIM: return static_in_order(P::kJohnson);
    case HeuristicId::kIOCMS: return static_in_order(P::kIncreasingComm);
    case HeuristicId::kDOCPS: return static_in_order(P::kDecreasingComp);
    case HeuristicId::kIOCCS:
      return static_in_order(P::kIncreasingCommPlusComp);
    case HeuristicId::kDOCCS:
      return static_in_order(P::kDecreasingCommPlusComp);
    case HeuristicId::kGG: return in_order(gilmore_gomory_order(scope));
    case HeuristicId::kBP:
      return in_order(bin_packing_order(scope, engine.capacity()));
    case HeuristicId::kLCMR: return dynamic(C::kLargestComm);
    case HeuristicId::kSCMR: return dynamic(C::kSmallestComm);
    case HeuristicId::kMAMR: return dynamic(C::kMaxAcceleration);
    case HeuristicId::kOOLCMR: return corrected(C::kLargestComm);
    case HeuristicId::kOOSCMR: return corrected(C::kSmallestComm);
    case HeuristicId::kOOMAMR: return corrected(C::kMaxAcceleration);
  }
  throw std::invalid_argument("run_heuristic: unknown heuristic id");
}

Schedule run_heuristic(HeuristicId id, const Instance& inst, Mem capacity) {
  const CompiledInstance ci(inst);
  Schedule sched(inst.size());
  Engine engine(ci, capacity);
  run_heuristic_on(id, inst, ci, inst.submission_order(), engine, sched);
  return sched;
}

Time heuristic_makespan(HeuristicId id, const Instance& inst, Mem capacity) {
  return run_heuristic(id, inst, capacity).makespan(inst);
}

AutoScheduleResult auto_schedule(const Instance& inst, Mem capacity,
                                 std::span<const HeuristicId> candidates,
                                 Executor* executor) {
  std::vector<Schedule> schedules(candidates.size());
  const auto evaluate = [&](std::size_t k) {
    schedules[k] = run_heuristic(candidates[k], inst, capacity);
  };
  if (executor != nullptr && candidates.size() > 1) {
    executor->for_each(candidates.size(), evaluate);
  } else {
    for (std::size_t k = 0; k < candidates.size(); ++k) evaluate(k);
  }

  AutoScheduleResult result;
  std::size_t best = 0;
  for (std::size_t k = 0; k < candidates.size(); ++k) {
    const Time ms = inst.empty() ? 0.0 : schedules[k].makespan(inst);
    result.outcomes.push_back(HeuristicOutcome{candidates[k], ms});
    if (ms < result.outcomes[best].makespan) best = k;
  }
  if (!candidates.empty()) {
    result.best = candidates[best];
    result.schedule = std::move(schedules[best]);
    result.makespan = result.outcomes[best].makespan;
  }
  if (inst.empty()) result.makespan = 0.0;
  return result;
}

AutoScheduleResult auto_schedule(const Instance& inst, Mem capacity) {
  const std::vector<HeuristicId> ids = all_heuristic_ids();
  return auto_schedule(inst, capacity, ids);
}

}  // namespace dts
