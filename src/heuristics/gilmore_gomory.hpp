#pragma once

/// \file gilmore_gomory.hpp
/// The GG baseline of the paper (§4.4): the sequence produced by the
/// Gilmore-Gomory (1964) algorithm for the 2-machine *no-wait* flowshop,
/// executed — like every other static order — under the memory capacity.
///
/// Background. Under the no-wait discipline a task's computation starts the
/// instant its transfer finishes. If task j directly follows task i, the
/// link must idle max(0, CP_i - CM_j) between the two transfers, so the
/// makespan of a sequence is
///     sum_i CM_i + sum_adjacent max(0, CP_i - CM_j) + CP_last,
/// i.e. a traveling-salesman tour through all tasks plus a dummy start/end
/// task with zero durations, with the asymmetric distance
///     c(i -> j) = max(0, CP_i - CM_j).
/// This distance is of Gilmore-Gomory type (machine leaves state CP_i,
/// next job requires state CM_j; moving the state down costs its length,
/// moving up is free), so the optimal tour is computable in O(n log n):
///   1. match the r-th smallest end state with the r-th smallest start
///      state (optimal bipartite relaxation),
///   2. patch the resulting sub-cycles into one tour with adjacent-rank
///      interchanges of cost
///        eps_r = max(0, min(u_(r+1), v_(r+1)) - max(u_(r), v_(r))),
///      selected by a Kruskal pass over the cycle structure,
///   3. apply the selected interchanges in a cost-preserving order.
/// Step 3's order matters; we evaluate the canonical candidate orders
/// (ascending, descending, the two two-group splits, and per-run best) and
/// keep the cheapest resulting tour — each candidate is a valid single
/// tour because the accepted interchanges form a spanning tree over the
/// sub-cycles. Optimality is cross-checked against exhaustive search in
/// the test suite.

#include <span>
#include <vector>

#include "core/instance.hpp"
#include "core/schedule.hpp"

namespace dts {

/// The Gilmore-Gomory optimal no-wait sequence for the instance.
[[nodiscard]] std::vector<TaskId> gilmore_gomory_order(const Instance& inst);

/// Makespan of `order` under the *no-wait* discipline (infinite memory) —
/// the quantity GG minimizes. Exposed for tests and the ablation bench.
[[nodiscard]] Time no_wait_makespan(const Instance& inst,
                                    std::span<const TaskId> order);

}  // namespace dts
