#pragma once

/// \file milp_solver.hpp
/// Self-contained 0-1 MILP solver for the transfer-ordering formulation
/// (model.hpp): best-first branch-and-bound over the fractional order
/// binaries, LP-relaxation node bounds from the dense simplex core
/// (simplex.hpp), incumbents warm-started from the heuristic registry,
/// and `PairOrderOptions`-style deadline / cancellation hooks.
///
/// Exactness contract: every integral node is *decoded* into a (global
/// transfer order, computation order) pair and scored through the
/// engine's `simulate_pair_order` co-simulation — the same finite value
/// set `best_pair_order` minimizes over, with the same `definitely_less`
/// incumbent discipline. A finished search (tree exhausted, or the
/// incumbent reached a proven lower bound) therefore returns a makespan
/// approx_equal to branch-bound's on the same instance — bitwise equal
/// whenever the optimum is uniquely attained (the two searches may keep
/// different equally-optimal schedules whose start-time sums round
/// differently in the last bits) — with `proved_optimal` set and
/// `lower_bound == makespan`. A search stopped
/// by the deadline, cancellation or the node budget returns its best
/// incumbent (always a complete feasible schedule) with the strongest
/// bound it established (max of the caller's bound and the root
/// relaxation) and `proved_optimal` false.

#include <cstdint>
#include <functional>
#include <vector>

#include "core/instance.hpp"
#include "core/schedule.hpp"

namespace dts {

struct MilpOptions {
  /// Safety valve on instance size (the binary space is 2^(n(n-1))).
  std::size_t max_n = 7;
  /// Grid resolution T of the bound model (milp:T): 0 = exact durations,
  /// T > 0 snaps model durations down onto a T-step grid anchored at the
  /// warm-start horizon. Result-affecting only through the schedule a
  /// budget-stopped search happens to have reached — a finished search
  /// returns the same proved-optimal makespan for every T.
  std::size_t grid = 0;
  /// Branch-and-bound node budget (pops). Exhausting it returns the
  /// incumbent with proved_optimal false — the anytime contract.
  std::uint64_t max_nodes = 20000;
  /// Optional proven makespan lower bound (e.g.
  /// capacity_aware_bounds(...).combined): an incumbent reaching it ends
  /// the search with optimality proven. 0 disables the early exit.
  Time lower_bound = 0.0;
  /// Cooperative stop (deadline / cancellation): polled once per node
  /// pop; returning true abandons the search, keeping the incumbent.
  std::function<bool()> should_stop;
};

struct MilpResult {
  Time makespan = kInfiniteTime;
  Schedule schedule;
  /// Global chronological transfer order / computation order of the
  /// incumbent (engine decode, see milp/model.hpp).
  std::vector<TaskId> comm_order;
  std::vector<TaskId> comp_order;
  /// Strongest proven bound: the makespan itself when proved_optimal,
  /// otherwise max(options.lower_bound, root LP relaxation).
  Time lower_bound = 0.0;
  bool proved_optimal = false;
  /// options.should_stop fired (node-budget exhaustion does NOT set
  /// this; it clears proved_optimal only).
  bool stopped = false;
  std::uint64_t nodes_explored = 0;   ///< Node pops (LP solves <= this).
  std::uint64_t leaves_scored = 0;    ///< Rounding decodes co-simulated.
  std::uint64_t lp_pivots = 0;        ///< Simplex pivots, all nodes.
};

/// Solves the ordering MILP exactly (subject to the anytime knobs above).
/// Throws std::invalid_argument when the instance exceeds options.max_n
/// or some task cannot fit in `capacity`.
[[nodiscard]] MilpResult solve_order_milp(const Instance& inst, Mem capacity,
                                          const MilpOptions& options = {});

}  // namespace dts
