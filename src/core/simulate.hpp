#pragma once

/// \file simulate.hpp
/// One-shot conveniences over the timing engine (core/compiled.hpp):
/// compile the instance, run one order on a fresh engine. Repeated
/// scorers should hold a CompiledInstance and an Engine themselves.

#include <span>

#include "core/instance.hpp"
#include "core/schedule.hpp"

namespace dts {

/// Runs `order` (all task ids of `inst`) on a fresh engine with one clock
/// per channel of `inst`; returns the schedule. Throws
/// std::invalid_argument when the order does not cover every task or a
/// task can never fit.
[[nodiscard]] Schedule simulate_order(const Instance& inst,
                                      std::span<const TaskId> order,
                                      Mem capacity);

/// Convenience: the makespan of simulate_order.
[[nodiscard]] Time makespan_of_order(const Instance& inst,
                                     std::span<const TaskId> order,
                                     Mem capacity);

}  // namespace dts
