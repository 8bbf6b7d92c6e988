#pragma once

/// \file schedule_stats.hpp
/// Post-mortem analysis of a schedule: where did the time go? The paper
/// reasons about link idle caused by memory pressure versus processor idle
/// caused by missing data; this module quantifies both so examples and
/// benches can explain *why* a heuristic scored what it scored.

#include "core/instance.hpp"
#include "core/schedule.hpp"

namespace dts {

struct ScheduleBreakdown {
  Time makespan = 0.0;
  Time link_busy = 0.0;        ///< time at least one copy engine is busy
                               ///< (the sum of communication times on a
                               ///< single link)
  Time link_idle = 0.0;        ///< makespan - last comm end + internal gaps
  Time proc_busy = 0.0;        ///< sum of computation times
  Time proc_idle = 0.0;
  Time proc_starved = 0.0;     ///< processor idle while some task's data
                               ///< had not yet finished transferring
  double overlap = 0.0;        ///< fraction of link busy time during which
                               ///< the processor was also busy

  /// Link utilization in [0, 1].
  [[nodiscard]] double link_utilization() const noexcept {
    return makespan <= 0.0 ? 0.0 : link_busy / makespan;
  }
  /// Processor utilization in [0, 1].
  [[nodiscard]] double proc_utilization() const noexcept {
    return makespan <= 0.0 ? 0.0 : proc_busy / makespan;
  }
};

/// Computes the breakdown of a complete schedule. O(n log n).
[[nodiscard]] ScheduleBreakdown analyze_schedule(const Instance& inst,
                                                 const Schedule& sched);

}  // namespace dts
