#include "exact/lower_bounds.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/bounds.hpp"
#include "core/johnson.hpp"
#include "support/tolerance.hpp"

namespace dts {

namespace {

/// The single-link bounds of the original model, applied to `inst` as if
/// its tasks shared one engine. Valid whenever they actually do (the whole
/// instance, or one channel's sub-instance).
CapacityAwareBounds one_link_bounds(const Instance& inst, Mem capacity) {
  CapacityAwareBounds b;
  b.omim = omim(inst);
  if (inst.empty()) return b;

  Time sum_comm = 0.0;
  Time sum_comp = 0.0;
  Time min_comm = kInfiniteTime;
  Time min_comp = kInfiniteTime;
  for (const Task& t : inst) {
    sum_comm += t.comm;
    sum_comp += t.comp;
    min_comm = std::min(min_comm, t.comm);
    min_comp = std::min(min_comp, t.comp);
    // Two tasks whose footprints each exceed half the capacity cannot hold
    // memory simultaneously; their [SCOMM, SCOMP+CP) intervals are
    // pairwise disjoint and each spans at least CM+CP.
    if (definitely_less(capacity, 2.0 * t.mem)) {
      b.big_task_serial += t.comm + t.comp;
    }
  }
  b.link_plus_tail = sum_comm + min_comp;
  b.head_plus_comp = min_comm + sum_comp;
  b.critical_path = critical_path_bound(inst);
  b.combined = std::max({b.omim, b.big_task_serial, b.link_plus_tail,
                         b.head_plus_comp, b.critical_path});
  return b;
}

}  // namespace

CapacityAwareBounds capacity_aware_bounds(const Instance& inst, Mem capacity) {
  if (!inst.fully_bound()) {
    throw std::invalid_argument(
        "capacity_aware_bounds: the instance has time-less (bytes-only) "
        "tasks; bind() it to a machine first");
  }
  if (inst.single_channel()) return one_link_bounds(inst, capacity);

  // Multi-channel: each channel's induced sub-schedule is feasible for the
  // sub-instance under the same capacity, so every single-link bound of a
  // sub-instance bounds the full makespan. The memory-serialization and
  // processor-load arguments are channel-oblivious and stay global.
  CapacityAwareBounds b;
  Time sum_comp = 0.0;
  Time min_comm = kInfiniteTime;
  for (const Task& t : inst) {
    sum_comp += t.comp;
    min_comm = std::min(min_comm, t.comm);
    if (definitely_less(capacity, 2.0 * t.mem)) {
      b.big_task_serial += t.comm + t.comp;
    }
  }
  if (!inst.empty()) b.head_plus_comp = min_comm + sum_comp;
  for (ChannelId ch = 0; ch < inst.num_channels(); ++ch) {
    const std::vector<TaskId> ids = inst.tasks_on_channel(ch);
    if (ids.empty()) continue;
    const CapacityAwareBounds sub = one_link_bounds(inst.subset(ids), capacity);
    b.omim = std::max(b.omim, sub.omim);
    b.link_plus_tail = std::max(b.link_plus_tail, sub.link_plus_tail);
  }
  // The chain argument is channel-oblivious (every edge serializes its two
  // endpoints whatever engines they use), so the full-instance chain is
  // the valid — and strongest — form here.
  b.critical_path = critical_path_bound(inst);
  b.combined = std::max({b.omim, b.big_task_serial, b.link_plus_tail,
                         b.head_plus_comp, b.critical_path});
  return b;
}

}  // namespace dts
