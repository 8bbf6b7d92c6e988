#pragma once

/// \file bin_packing.hpp
/// The BP baseline of the paper (§4.4): First-Fit bin packing on memory
/// requirements. Tasks are taken in submission order and placed in the
/// first bin whose residual capacity holds them (bin capacity = the memory
/// capacity C); the processing sequence is bin 1's tasks, then bin 2's,
/// and so on. The intuition: tasks sharing a bin are guaranteed to fit in
/// memory together, so transfers inside a bin can proceed back-to-back.

#include <span>
#include <vector>

#include "core/instance.hpp"
#include "core/schedule.hpp"

namespace dts {

/// First-Fit bins of task ids (exposed for tests and the example apps).
/// Throws std::invalid_argument if some task alone exceeds `capacity`.
[[nodiscard]] std::vector<std::vector<TaskId>> first_fit_bins(
    const Instance& inst, Mem capacity);

/// Concatenation of the First-Fit bins — the BP sequence.
[[nodiscard]] std::vector<TaskId> bin_packing_order(const Instance& inst,
                                                    Mem capacity);

}  // namespace dts
