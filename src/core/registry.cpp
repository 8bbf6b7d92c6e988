#include "core/registry.hpp"

#include <array>
#include <functional>
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

/// A static order over every task of an instance.
using OrderFn = std::function<std::vector<TaskId>(const Instance&)>;

/// `order_of`'s order restricted to `ids`, repaired against the edges
/// among them (identity on edge-free tasks). The whole instance in id
/// order is ordered in place; any other selection on its renumbered
/// subset, mapped back to real ids.
std::vector<TaskId> order_over(const OrderFn& order_of, const Instance& inst,
                               std::span<const TaskId> ids) {
  bool whole = ids.size() == inst.size();
  for (std::size_t k = 0; whole && k < ids.size(); ++k) whole = ids[k] == k;
  std::optional<Instance> subset;
  if (!whole) subset = inst.subset(ids);
  const Instance& scope = whole ? inst : *subset;
  std::vector<TaskId> order = order_of(scope);
  if (scope.has_dependencies()) order = legalize_order(scope, order);
  if (!whole) {
    for (TaskId& id : order) id = ids[id];
  }
  return order;
}

}  // namespace

void run_heuristic_on(HeuristicId id, const Instance& inst,
                      const CompiledInstance& ci, std::span<const TaskId> ids,
                      Engine& engine, Schedule& sched) {
  using C = DynamicCriterion;
  using P = StaticOrderPolicy;
  const auto policy = [](P p) -> OrderFn {
    return [p](const Instance& scope) { return static_order(scope, p); };
  };
  // What each heuristic is (§4.1-4.4): a static order issued verbatim, a
  // dynamic selection, or the Johnson order with dynamic corrections.
  const auto in_order = [&](const OrderFn& order_of) {
    engine.issue_in_order(order_over(order_of, inst, ids), sched);
  };
  const auto dynamic = [&](C criterion) {
    execute_dynamic(ci, ids, criterion, engine, sched);
  };
  const auto corrected = [&](C criterion) {
    execute_corrected(ci, order_over(policy(P::kJohnson), inst, ids),
                      criterion, engine, sched);
  };
  switch (id) {
    case HeuristicId::kOS: return in_order(policy(P::kSubmission));
    case HeuristicId::kOOSIM: return in_order(policy(P::kJohnson));
    case HeuristicId::kIOCMS: return in_order(policy(P::kIncreasingComm));
    case HeuristicId::kDOCPS: return in_order(policy(P::kDecreasingComp));
    case HeuristicId::kIOCCS:
      return in_order(policy(P::kIncreasingCommPlusComp));
    case HeuristicId::kDOCCS:
      return in_order(policy(P::kDecreasingCommPlusComp));
    case HeuristicId::kGG: return in_order(gilmore_gomory_order);
    case HeuristicId::kBP:
      return in_order([capacity = engine.capacity()](const Instance& scope) {
        return bin_packing_order(scope, capacity);
      });
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
