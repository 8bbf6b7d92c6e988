#pragma once

/// Shared fixtures for the dts test suite: the paper's example instances
/// (Tables 2-5), seeded random instance generators for property tests and
/// an independent reference for the timing engine.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/instance.hpp"
#include "core/schedule.hpp"
#include "core/validate.hpp"
#include "support/rng.hpp"
#include "support/tolerance.hpp"

namespace dts::testing {

/// Table 2 (Proposition 1): optimal schedules need different orders on the
/// two resources when the capacity is 10.
inline Instance table2_instance() {
  return Instance::from_comm_comp({
      {0, 5},  // A
      {4, 3},  // B
      {1, 6},  // C
      {3, 7},  // D
      {6, 0.5},  // E
      {7, 0.5},  // F
  });
}
inline constexpr Mem kTable2Capacity = 10.0;

/// Table 3 (static-order examples, Fig. 4), capacity 6.
inline Instance table3_instance() {
  return Instance::from_comm_comp({
      {3, 2},  // A
      {1, 3},  // B
      {4, 4},  // C
      {2, 1},  // D
  });
}
inline constexpr Mem kTable3Capacity = 6.0;

/// Table 4 (dynamic examples, Fig. 5), capacity 6.
inline Instance table4_instance() {
  return Instance::from_comm_comp({
      {3, 2},  // A
      {1, 6},  // B
      {4, 6},  // C
      {5, 1},  // D
  });
}
inline constexpr Mem kTable4Capacity = 6.0;

/// Table 5 (corrections examples, Fig. 6), capacity 9.
inline Instance table5_instance() {
  return Instance::from_comm_comp({
      {4, 1},  // A
      {2, 6},  // B
      {8, 8},  // C
      {5, 4},  // D
      {3, 2},  // E
  });
}
inline constexpr Mem kTable5Capacity = 9.0;

/// Fig. 6 feeds the corrections heuristics the base order B C D A E.
inline std::vector<TaskId> table5_paper_omim_order() { return {1, 2, 3, 0, 4}; }

/// Random instance with durations in (0, 10] and memory equal to the
/// communication time (the paper's convention). Occasionally emits
/// zero-communication or zero-computation tasks to cover the edge cases
/// the paper's own examples contain.
inline Instance random_instance(Rng& rng, std::size_t n) {
  std::vector<Task> tasks;
  tasks.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Time comm = rng.uniform(0.0, 10.0);
    Time comp = rng.uniform(0.0, 10.0);
    if (rng.chance(0.08)) comm = 0.0;
    if (rng.chance(0.08)) comp = 0.0;
    if (rng.chance(0.25)) comm = std::floor(comm);  // exercise ties
    if (rng.chance(0.25)) comp = std::floor(comp);
    tasks.push_back(Task{.id = 0, .comm = comm, .comp = comp, .mem = comm,
                         .name = {}});
  }
  return Instance(std::move(tasks));
}

/// Random instance whose memory is decoupled from the communication time.
inline Instance random_instance_free_mem(Rng& rng, std::size_t n) {
  std::vector<Task> tasks;
  tasks.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    tasks.push_back(Task{.id = 0,
                         .comm = rng.uniform(0.0, 10.0),
                         .comp = rng.uniform(0.0, 10.0),
                         .mem = rng.uniform(0.1, 10.0),
                         .name = {}});
  }
  return Instance(std::move(tasks));
}

/// Capacity between mc (tightest feasible) and a multiple of it.
inline Mem random_capacity(Rng& rng, const Instance& inst, double max_factor = 3.0) {
  const Mem mc = inst.min_capacity();
  return mc <= 0.0 ? 1.0 : mc * rng.uniform(1.0, max_factor);
}

/// Gtest-friendly feasibility assertion.
inline ::testing::AssertionResult feasible(const Instance& inst,
                                           const Schedule& sched,
                                           Mem capacity) {
  const ValidationReport report = validate_schedule(inst, sched, capacity);
  if (report.ok()) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << report.summary();
}

/// Final state and schedule of a reference_run.
struct ReferenceRun {
  Schedule schedule;
  std::vector<Time> comm_available;  ///< one clock per channel
  Time comp_available = 0.0;
  Time now = 0.0;
  Mem used = 0.0;
  std::size_t active = 0;
};

/// Oracle for the timing engine (core/compiled.hpp), written from its
/// documented rules as a plain per-task loop over `inst` and independent
/// of the engine's code: memory is held from transfer start to
/// computation end and released at exact computation ends (a min-heap on the
/// end, popped in the same order as the engine's, so the footprint sums
/// round identically); a transfer waits for memory, its channel, the
/// decision instant and its predecessors; computations run in issue
/// order; after each issue the decision instant moves to the earliest
/// free channel. Throws std::invalid_argument for a task that can never
/// fit or one issued before a predecessor.
inline ReferenceRun reference_run(const Instance& inst,
                                  std::span<const TaskId> order,
                                  Mem capacity) {
  struct Held {
    Time end;
    Mem mem;
    bool operator>(const Held& o) const { return end > o.end; }
  };
  ReferenceRun r{Schedule(inst.size()),
                 std::vector<Time>(inst.num_channels(), 0.0)};
  std::vector<Held> held;
  const auto release_until = [&](Time t) {
    while (!held.empty() && held.front().end <= t) {
      r.used -= held.front().mem;
      std::pop_heap(held.begin(), held.end(), std::greater<>{});
      held.pop_back();
    }
    if (held.empty()) r.used = 0.0;
  };
  for (const TaskId id : order) {
    const Task& t = inst[id];
    while (!approx_leq(r.used + t.mem, capacity)) {  // wait for memory
      if (held.empty()) throw std::invalid_argument("reference: never fits");
      r.now = std::max(r.now, held.front().end);
      release_until(r.now);
    }
    Time ready = 0.0;
    for (const TaskId dep : t.deps) {
      if (!r.schedule[dep].scheduled()) {
        throw std::invalid_argument("reference: predecessor not issued");
      }
      ready = std::max(ready, r.schedule[dep].comp_start + inst[dep].comp);
    }
    Time& clock = r.comm_available.at(t.channel);
    const Time comm_start = std::max(std::max(r.now, clock), ready);
    if (comm_start > r.now) {
      r.now = comm_start;
      release_until(r.now);
    }
    const Time comp_start = std::max(comm_start + t.comm, r.comp_available);
    clock = comm_start + t.comm;
    r.comp_available = comp_start + t.comp;
    r.used += t.mem;
    held.push_back(Held{r.comp_available, t.mem});
    std::push_heap(held.begin(), held.end(), std::greater<>{});
    r.now = std::max(r.now, *std::min_element(r.comm_available.begin(),
                                              r.comm_available.end()));
    release_until(r.now);
    r.schedule.set(id, comm_start, comp_start);
  }
  r.active = held.size();
  return r;
}

}  // namespace dts::testing
