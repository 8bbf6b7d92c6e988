#include "report/schedule_stats.hpp"

#include <algorithm>
#include <vector>

namespace dts {

namespace {

/// Busy intervals of one resource, sorted by start.
std::vector<std::pair<Time, Time>> busy_intervals(
    const Instance& inst, const Schedule& sched,
    Time TaskTimes::* start_field, Time Task::* len_field) {
  std::vector<std::pair<Time, Time>> intervals;
  intervals.reserve(inst.size());
  for (TaskId i = 0; i < inst.size(); ++i) {
    const Time start = sched[i].*start_field;
    const Time len = inst[i].*len_field;
    if (len > 0.0) intervals.emplace_back(start, start + len);
  }
  std::sort(intervals.begin(), intervals.end());
  return intervals;
}

/// Merges overlapping intervals of a sorted set in place and returns the
/// length the set counted more than once. Touching intervals stay apart,
/// so one engine's (disjoint) transfers come back unchanged and the
/// double-counted length is exactly zero.
Time merge_overlaps(std::vector<std::pair<Time, Time>>& intervals) {
  Time double_counted = 0.0;
  std::size_t last = 0;
  for (std::size_t i = 1; i < intervals.size(); ++i) {
    auto& [start, end] = intervals[last];
    const auto& [next_start, next_end] = intervals[i];
    if (next_start < end) {
      double_counted += std::min(end, next_end) - next_start;
      end = std::max(end, next_end);
    } else {
      intervals[++last] = intervals[i];
    }
  }
  if (!intervals.empty()) intervals.resize(last + 1);
  return double_counted;
}

/// Total length of the union of [0, horizon) minus the intervals.
Time idle_within(const std::vector<std::pair<Time, Time>>& intervals,
                 Time horizon) {
  Time idle = 0.0;
  Time cursor = 0.0;
  for (const auto& [start, end] : intervals) {
    if (start > cursor) idle += start - cursor;
    cursor = std::max(cursor, end);
  }
  if (horizon > cursor) idle += horizon - cursor;
  return idle;
}

/// Overlap length between two sorted sets of disjoint intervals.
Time overlap_length(const std::vector<std::pair<Time, Time>>& a,
                    const std::vector<std::pair<Time, Time>>& b) {
  Time total = 0.0;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const Time lo = std::max(a[i].first, b[j].first);
    const Time hi = std::min(a[i].second, b[j].second);
    if (hi > lo) total += hi - lo;
    (a[i].second < b[j].second) ? ++i : ++j;
  }
  return total;
}

}  // namespace

ScheduleBreakdown analyze_schedule(const Instance& inst,
                                   const Schedule& sched) {
  ScheduleBreakdown out;
  if (inst.empty()) return out;
  out.makespan = sched.makespan(inst);

  // Transfers on distinct engines may run at once: the link counts as
  // busy while any engine is, so overlapping transfers are merged first.
  auto comm = busy_intervals(inst, sched, &TaskTimes::comm_start,
                             &Task::comm);
  const auto comp = busy_intervals(inst, sched, &TaskTimes::comp_start,
                                   &Task::comp);
  for (const Task& t : inst) {
    out.link_busy += t.comm;
    out.proc_busy += t.comp;
  }
  out.link_busy -= merge_overlaps(comm);
  out.link_idle = idle_within(comm, out.makespan);
  out.proc_idle = idle_within(comp, out.makespan);

  // Processor-starved time: idle processor intervals during which at least
  // one task's transfer was still running (its data was on the way).
  // Complement view: idle while the link is busy.
  const Time idle_and_link_busy =
      out.link_busy - overlap_length(comm, comp);
  out.proc_starved = std::max(0.0, idle_and_link_busy);

  out.overlap = out.link_busy <= 0.0
                    ? 0.0
                    : overlap_length(comm, comp) / out.link_busy;
  return out;
}

}  // namespace dts
