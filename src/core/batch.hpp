#pragma once

/// \file batch.hpp
/// Batch scheduling (paper §6.3). A runtime scheduler rarely sees the whole
/// task set at once; it observes a limited window of independent tasks.
/// This module applies a heuristic to successive batches of `batch_size`
/// tasks (in submission order), carrying the link/processor availability
/// and the still-resident memory from one batch into the next — exactly
/// what a runtime that keeps issuing work would do.

#include <cstddef>
#include <span>
#include <vector>

#include "core/instance.hpp"
#include "core/registry.hpp"
#include "core/schedule.hpp"

namespace dts {

class Executor;  // job.hpp

/// Runs `id` on consecutive batches of `batch_size` tasks sharing one
/// execution state. A batch's ordering decisions (Johnson order, GG
/// sequence, First-Fit bins, dynamic selection...) only consider the tasks
/// of that batch, mirroring the paper's setup. `batch_size` of 0 is
/// rejected; a size >= n degenerates to the plain heuristic. This is
/// schedule_in_batches_auto over the one candidate `id`: one walk serves
/// both, and with a single candidate it keeps one live engine throughout.
[[nodiscard]] Schedule schedule_in_batches(HeuristicId id, const Instance& inst,
                                           Mem capacity,
                                           std::size_t batch_size);

/// The online form of the paper's envisioned auto-selecting runtime: for
/// every batch, try each candidate heuristic from the state the previous
/// batches left behind (scheduling is simulation, so this is cheap), and
/// commit the one finishing the batch earliest (ties: earlier candidate,
/// then earlier link availability). Every candidate keeps a live engine;
/// after each batch the losers' engines become copies of the winner's.
/// Also reports which heuristic won each batch.
struct BatchAutoResult {
  Schedule schedule;
  std::vector<HeuristicId> winners;  ///< one per batch
};

/// `executor` (job.hpp; e.g. a SolverPool) fans the per-batch candidate
/// trials — each an independent simulation of one candidate's subset
/// instance from the committed engine state — across workers. The committed
/// winner per batch is identical to the serial evaluation: trials are
/// independent and the reduction folds them in candidate order with the
/// same strict-preference rule. Null runs the trials serially.
[[nodiscard]] BatchAutoResult schedule_in_batches_auto(
    const Instance& inst, Mem capacity, std::size_t batch_size,
    std::span<const HeuristicId> candidates, Executor* executor = nullptr);

}  // namespace dts
