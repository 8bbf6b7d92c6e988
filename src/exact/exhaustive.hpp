#pragma once

/// \file exhaustive.hpp
/// Exact optimization over *permutation* schedules (common communication /
/// computation order) by enumerating distinct task-value permutations.
/// Usable up to n ~ 10 in general; far beyond that when many tasks are
/// identical (duplicates are enumerated once — std::next_permutation over
/// task values collapses equal tasks).

#include <functional>
#include <optional>
#include <vector>

#include "core/instance.hpp"
#include "core/schedule.hpp"
#include "core/compiled.hpp"

namespace dts {

class Executor;  // job.hpp

struct ExhaustiveResult {
  Time makespan = kInfiniteTime;
  std::vector<TaskId> order;  ///< a best common order
  Schedule schedule;
  /// Engine state after running the best order (window solving carries it
  /// into the next window).
  Engine::Snapshot final_state;
  std::uint64_t permutations_tried = 0;
  /// True when options.should_stop ended the search early; the result is
  /// then the best order seen so far (makespan kInfiniteTime and an empty
  /// order if none was).
  bool stopped = false;
};

struct ExhaustiveOptions {
  /// Safety valve: refuse instances whose distinct-permutation count would
  /// exceed roughly max_n! (default 10!).
  std::size_t max_n = 10;
  /// Optional carried state (window solving); nullopt = fresh engine.
  std::optional<Engine::Snapshot> initial_state;
  /// Optional per-task transfer-start floors (indexed by task id of the
  /// instance being solved): completion times of predecessors that live
  /// outside this instance — the window solver passes them next to the
  /// carried snapshot. Empty means none. The instance's own edges are
  /// enforced by the engine either way.
  std::vector<Time> ready_times;
  /// Optional fan-out (job.hpp): the enumeration splits into one branch
  /// per value-distinct first task and scans the branches concurrently.
  /// The branches partition the serial enumeration, and the final fold
  /// applies the same strict-preference rule in the serial order, so the
  /// optimum (and its tie-breaking) match the serial search. Used for
  /// instances of 6+ tasks; smaller searches stay serial.
  Executor* executor = nullptr;
  /// Cooperative stop (deadline / cancellation): polled every 256
  /// evaluated permutations, in each parallel branch too; returning true
  /// abandons the search, marking the result stopped.
  std::function<bool()> should_stop;
};

/// Minimizes makespan over all distinct common orders under `capacity`.
/// Throws std::invalid_argument when inst.size() > options.max_n.
[[nodiscard]] ExhaustiveResult best_common_order(const Instance& inst,
                                                 Mem capacity,
                                                 const ExhaustiveOptions& options = {});

}  // namespace dts
