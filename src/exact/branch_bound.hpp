#pragma once

/// \file branch_bound.hpp
/// Exact solver over schedules whose communication and computation orders
/// may differ — the full solution space of the paper's MILP (its a_ij and
/// b_ij order variables are independent). Proposition 1 shows this space
/// can strictly beat permutation schedules under a memory constraint; the
/// Table 2 instance (makespan 22 vs 23) is the canonical witness and a
/// golden test of this module.
///
/// Multi-channel instances are solved exactly too: the search enumerates
/// one *global* transfer order — the chronological order in which the
/// machine's copy engines start their transfers, which induces one
/// per-channel order per engine — together with an independent computation
/// order. Any feasible schedule sorts its transfer starts into some global
/// chronological order and its computations into some service order, and
/// the semi-active co-simulation of that pair starts every event no later
/// than the schedule does (each engine serves its induced sequence at the
/// earliest memory-feasible instant, the processor serves its sequence as
/// soon as data is present), so scanning all pairs minimizes the makespan
/// over *all* feasible schedules. With one channel this degenerates
/// bit-for-bit into the original pair-order search.
///
/// Three prunes keep the search practical: a running lower bound per
/// resource (each copy engine's remaining transfer load and the
/// processor's remaining computation load) aborts a pair early, identical
/// tasks collapse into one representative ordering, and a caller-provided
/// makespan lower bound (exact/lower_bounds.hpp — channel-aware) ends the
/// whole search as soon as an incumbent provably optimal is found.

#include <functional>
#include <optional>
#include <vector>

#include "core/instance.hpp"
#include "core/schedule.hpp"
#include "core/compiled.hpp"

namespace dts {

struct PairOrderOptions {
  /// Safety valve on instance size (search is ~ (n!)^2 / duplicates).
  std::size_t max_n = 7;
  /// Optional carried engine state (window solving). May carry one clock
  /// per channel; channels the snapshot does not cover start free at the
  /// snapshot's decision instant.
  std::optional<Engine::Snapshot> initial_state;
  /// Optional per-task transfer-start floors (indexed by task id):
  /// completion times of predecessors outside this instance — the window
  /// solver passes them next to the carried snapshot. Empty means none.
  /// The instance's own edges are enforced by the co-simulation either
  /// way.
  std::vector<Time> ready_times;
  /// Stop exploring a pair as soon as its makespan provably reaches the
  /// incumbent; also used as an initial upper bound when finite.
  Time upper_bound = kInfiniteTime;
  /// Optional proven makespan lower bound: the search stops as soon as an
  /// incumbent reaches it, marking the result proved_optimal. Must be
  /// valid for the supplied initial state — the fresh-instance
  /// capacity_aware_bounds(...).combined qualifies for a fresh state and
  /// stays valid under a carried one (clocks and held memory only delay
  /// starts); window callers strengthen it with the carried clocks (see
  /// exact/window_solver.cpp). 0 disables the early exit.
  Time lower_bound = 0.0;
  /// Cooperative stop (deadline / cancellation): polled every few hundred
  /// simulated pairs; returning true abandons the search, marking the
  /// result stopped. The incumbent found so far is still returned.
  std::function<bool()> should_stop;
};

struct PairOrderResult {
  Time makespan = kInfiniteTime;
  Schedule schedule;
  /// Global (chronological, cross-channel) transfer order of the winner;
  /// restricting it to one channel's tasks gives that engine's sequence.
  std::vector<TaskId> comm_order;
  std::vector<TaskId> comp_order;
  Engine::Snapshot final_state;
  std::uint64_t pairs_simulated = 0;
  /// True when options.should_stop ended the search early; the makespan is
  /// then only an upper bound (kInfiniteTime if nothing feasible was seen).
  bool stopped = false;
  /// True when the incumbent reached options.lower_bound and the search
  /// ended with optimality proven without scanning the remaining pairs.
  bool proved_optimal = false;
};

/// Minimum makespan over independent (global transfer order, computation
/// order) pairs — exact for any channel count. Throws
/// std::invalid_argument when the instance exceeds options.max_n or some
/// task cannot fit in `capacity`.
[[nodiscard]] PairOrderResult best_pair_order(const Instance& inst, Mem capacity,
                                              const PairOrderOptions& options = {});

/// Semi-active co-simulation of one (global transfer, computation) order
/// pair: each copy engine serves its induced per-channel sequence at the
/// earliest memory-feasible instant (transfer starts never decrease along
/// `comm_order` — it is the chronological order), the processor serves
/// `comp_order` as soon as data is present. Returns nullopt when the pair
/// deadlocks under the memory capacity (the next transfer waits for memory
/// that only a computation blocked behind it can release, or — on a DAG —
/// for a predecessor computation sequenced behind it) or when the makespan
/// provably reaches `abort_at`. On success fills `out` (sized n) with
/// start times. `ready_floors` (optional, indexed by task id) floors each
/// transfer start at an externally known instant; the instance's own
/// dependency edges are always enforced.
[[nodiscard]] std::optional<Time> simulate_pair_order(
    const Instance& inst, std::span<const TaskId> comm_order,
    std::span<const TaskId> comp_order, Mem capacity,
    const Engine::Snapshot& initial, Time abort_at, Schedule& out,
    std::span<const Time> ready_floors = {});

}  // namespace dts
