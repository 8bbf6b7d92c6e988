#pragma once

/// \file static_orders.hpp
/// Static ordering heuristics (paper §4.1): the full processing order is
/// fixed in advance from task durations alone, then executed as a
/// permutation schedule under the memory capacity.
///
///   OS     order of submission (the arbitrary trace order)
///   OOSIM  order of the optimal strategy for infinite memory (Johnson)
///   IOCMS  non-decreasing communication time
///   DOCPS  non-increasing computation time
///   IOCCS  non-decreasing comm + comp
///   DOCCS  non-increasing comm + comp
///
/// All sorts are stable so equal keys preserve submission order, making
/// every heuristic deterministic.

#include <span>
#include <string_view>
#include <vector>

#include "core/instance.hpp"
#include "core/schedule.hpp"

namespace dts {

enum class StaticOrderPolicy {
  kSubmission,             ///< OS
  kJohnson,                ///< OOSIM
  kIncreasingComm,         ///< IOCMS
  kDecreasingComp,         ///< DOCPS
  kIncreasingCommPlusComp, ///< IOCCS
  kDecreasingCommPlusComp, ///< DOCCS
};

/// The task permutation prescribed by `policy` (no memory constraint is
/// involved at this stage).
[[nodiscard]] std::vector<TaskId> static_order(const Instance& inst,
                                               StaticOrderPolicy policy);

/// Paper acronym for the policy (e.g. "IOCMS").
[[nodiscard]] std::string_view to_acronym(StaticOrderPolicy policy) noexcept;

}  // namespace dts
