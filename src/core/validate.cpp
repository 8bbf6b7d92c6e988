#include "core/validate.hpp"

#include <algorithm>
#include <sstream>

#include "support/tolerance.hpp"

namespace dts {

namespace {

/// Checks pairwise disjointness of the per-task intervals on one resource.
/// Intervals are ordered by (start, end, id): zero-length intervals sort
/// before a task starting at the same instant, so an instantaneous
/// transfer at a boundary does not read as an overlap. Consecutive-pair
/// checking is sufficient after sorting.
template <typename StartFn, typename LenFn>
void check_resource_exclusive(std::vector<TaskId> ids, StartFn start,
                              LenFn len, Violation::Kind kind,
                              const char* resource,
                              std::vector<Violation>& out) {
  std::sort(ids.begin(), ids.end(), [&](TaskId a, TaskId b) {
    const Time sa = start(a);
    const Time sb = start(b);
    if (sa != sb) return sa < sb;
    const Time ea = sa + len(a);
    const Time eb = sb + len(b);
    if (ea != eb) return ea < eb;
    return a < b;
  });
  for (std::size_t k = 1; k < ids.size(); ++k) {
    const TaskId prev = ids[k - 1];
    const TaskId cur = ids[k];
    const Time prev_end = start(prev) + len(prev);
    if (definitely_less(start(cur), prev_end)) {
      std::ostringstream os;
      os << resource << " overlap: task " << prev << " runs until " << prev_end
         << " but task " << cur << " starts at " << start(cur);
      out.push_back(Violation{kind, prev, cur, os.str()});
    }
  }
}

}  // namespace

std::string ValidationReport::summary() const {
  if (ok()) return "feasible (peak memory " + std::to_string(peak_memory) + ")";
  std::ostringstream os;
  os << violations.size() << " violation(s):";
  for (const Violation& v : violations) os << "\n  - " << v.detail;
  return os.str();
}

Mem peak_memory(const Instance& inst, const Schedule& sched) {
  // Sweep events: +mem at comm start, -mem at comp end. Process releases
  // before acquisitions at equal instants (half-open semantics).
  struct Event {
    Time t;
    Mem delta;
  };
  std::vector<Event> events;
  events.reserve(2 * inst.size());
  for (TaskId i = 0; i < inst.size(); ++i) {
    const TaskTimes& tt = sched[i];
    if (!tt.scheduled()) continue;
    events.push_back({tt.comm_start, inst[i].mem});
    events.push_back({tt.comp_start + inst[i].comp, -inst[i].mem});
  }
  std::sort(events.begin(), events.end(), [](const Event& x, const Event& y) {
    if (x.t != y.t) return x.t < y.t;
    return x.delta < y.delta;  // releases first
  });
  Mem used = 0.0;
  Mem peak = 0.0;
  for (const Event& e : events) {
    used += e.delta;
    peak = std::max(peak, used);
  }
  return peak;
}

ValidationReport validate_schedule(const Instance& inst, const Schedule& sched,
                                   Mem capacity) {
  ValidationReport report;
  auto& out = report.violations;

  if (sched.size() != inst.size()) {
    out.push_back(Violation{Violation::Kind::kUnscheduledTask, kInvalidTask,
                            kInvalidTask, "schedule/instance size mismatch"});
    return report;
  }

  for (TaskId i = 0; i < inst.size(); ++i) {
    const TaskTimes& tt = sched[i];
    if (!tt.scheduled()) {
      out.push_back(Violation{Violation::Kind::kUnscheduledTask, i, kInvalidTask,
                              "task " + std::to_string(i) + " unscheduled"});
      continue;
    }
    if (tt.comm_start < 0.0 || tt.comp_start < 0.0) {
      out.push_back(Violation{Violation::Kind::kNegativeStart, i, kInvalidTask,
                              "task " + std::to_string(i) + " negative start"});
    }
    const Time data_ready = tt.comm_start + inst[i].comm;
    if (definitely_less(tt.comp_start, data_ready)) {
      std::ostringstream os;
      os << "task " << i << " computes at " << tt.comp_start
         << " before its data arrives at " << data_ready;
      out.push_back(
          Violation{Violation::Kind::kComputeBeforeData, i, kInvalidTask, os.str()});
    }
  }
  if (!out.empty()) return report;  // start-time checks below need complete data

  if (inst.has_dependencies()) {
    for (TaskId i = 0; i < inst.size(); ++i) {
      for (const TaskId dep : inst[i].deps) {
        const Time pred_end = sched[dep].comp_start + inst[dep].comp;
        if (definitely_less(sched[i].comm_start, pred_end)) {
          std::ostringstream os;
          os << "task " << i << " transfers at " << sched[i].comm_start
             << " before its predecessor " << dep << " finishes computing at "
             << pred_end;
          out.push_back(Violation{Violation::Kind::kDependencyViolated, i, dep,
                                  os.str()});
        }
      }
    }
  }

  // Transfers serialize per copy engine: check each channel's intervals
  // independently so opposite-direction (H2D/D2H) transfers may overlap.
  std::vector<std::vector<TaskId>> on_channel(inst.num_channels());
  for (TaskId i = 0; i < inst.size(); ++i) {
    on_channel[inst[i].channel].push_back(i);
  }
  for (ChannelId ch = 0; ch < inst.num_channels(); ++ch) {
    const std::string label =
        inst.single_channel() ? "link" : "channel " + std::to_string(ch);
    check_resource_exclusive(
        std::move(on_channel[ch]),
        [&](TaskId i) { return sched[i].comm_start; },
        [&](TaskId i) { return inst[i].comm; }, Violation::Kind::kCommOverlap,
        label.c_str(), out);
  }
  check_resource_exclusive(
      sched.comp_order(), [&](TaskId i) { return sched[i].comp_start; },
      [&](TaskId i) { return inst[i].comp; }, Violation::Kind::kCompOverlap,
      "processor", out);

  report.peak_memory = peak_memory(inst, sched);
  if (definitely_less(capacity, report.peak_memory)) {
    std::ostringstream os;
    os << "peak active memory " << report.peak_memory << " exceeds capacity "
       << capacity;
    out.push_back(Violation{Violation::Kind::kMemoryExceeded, kInvalidTask,
                            kInvalidTask, os.str()});
  }
  return report;
}

}  // namespace dts
