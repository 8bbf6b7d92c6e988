#include "core/recommend.hpp"

#include <stdexcept>

#include "core/johnson.hpp"
#include "core/validate.hpp"
#include "support/tolerance.hpp"

namespace dts {

std::string_view to_string(CapacityRegime regime) noexcept {
  switch (regime) {
    case CapacityRegime::kUnconstrained: return "unconstrained";
    case CapacityRegime::kModerate: return "moderate";
    case CapacityRegime::kLimited: return "limited";
  }
  return "?";
}

CapacityRegime classify_capacity(const Instance& inst, Mem capacity) {
  const Mem johnson_peak = peak_memory(inst, johnson_schedule(inst));
  if (approx_leq(johnson_peak, capacity)) return CapacityRegime::kUnconstrained;
  const Mem mc = inst.min_capacity();
  // "Moderate" in the paper means constrained but close to what the OMIM
  // schedule needs; empirically the corrections family takes over around
  // 1.5x the minimum capacity (Figs. 10/12).
  return capacity >= 1.5 * mc ? CapacityRegime::kModerate
                              : CapacityRegime::kLimited;
}

namespace {

/// Mean communication time of tasks selected by `pred`; 0 when none match.
template <typename Pred>
Time mean_comm(const Instance& inst, Pred pred) {
  Time sum = 0.0;
  std::size_t count = 0;
  for (const Task& t : inst) {
    if (pred(t)) {
      sum += t.comm;
      ++count;
    }
  }
  return count == 0 ? 0.0 : sum / static_cast<Time>(count);
}

}  // namespace

Recommendation recommend(const Instance& inst, Mem capacity) {
  if (!inst.fully_bound()) {
    throw std::invalid_argument(
        "recommend: the instance has time-less (bytes-only) tasks; bind() "
        "it to a machine first");
  }
  const CapacityRegime regime = classify_capacity(inst, capacity);
  const InstanceStats stats = inst.stats();
  const double ci_frac = stats.compute_intensive_fraction();
  // "Significant percentage of both types": neither side dominates.
  const bool mixed = ci_frac > 0.35 && ci_frac < 0.65;

  switch (regime) {
    case CapacityRegime::kUnconstrained:
      return {HeuristicId::kOOSIM, regime,
              "memory capacity is not a restriction: Johnson order is optimal"};
    case CapacityRegime::kModerate:
      if (mixed) {
        return {HeuristicId::kOOMAMR, regime,
                "moderate capacity, significant share of both compute- and "
                "communication-intensive tasks"};
      }
      if (ci_frac >= 0.65) {
        return {HeuristicId::kOOSCMR, regime,
                "moderate capacity, tasks mostly compute intensive"};
      }
      return {HeuristicId::kOOLCMR, regime,
              "moderate capacity, tasks mostly communication intensive"};
    case CapacityRegime::kLimited: {
      if (mixed) {
        return {HeuristicId::kMAMR, regime,
                "limited capacity, significant share of both task types"};
      }
      // Does compute-intensity live in the small-communication tasks (HF's
      // shape, favoring SCMR) or in the large-communication ones (LCMR)?
      const Time ci_comm =
          mean_comm(inst, [](const Task& t) { return t.compute_intensive(); });
      const Time all_comm = mean_comm(inst, [](const Task&) { return true; });
      if (ci_comm <= all_comm) {
        return {HeuristicId::kSCMR, regime,
                "limited capacity, compute-intensive tasks have small "
                "communication times"};
      }
      return {HeuristicId::kLCMR, regime,
              "limited capacity, compute-intensive tasks have large "
              "communication times"};
    }
  }
  return {HeuristicId::kOOSIM, CapacityRegime::kUnconstrained, "fallback"};
}

}  // namespace dts
