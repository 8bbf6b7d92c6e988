#pragma once

/// \file registry.hpp
/// The one home of the paper's 14 heuristics, keyed by the acronyms used
/// in its figures: their metadata, what each one computes (a static
/// order, a dynamic selection criterion, or both) and how it runs on the
/// timing engine, over a whole trace or batch by batch (core/batch.hpp),
/// plus the auto-scheduler's best-of fold. The solver adapters, the batch
/// runtime and the benches all run heuristics through here.

#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "core/instance.hpp"
#include "core/schedule.hpp"

namespace dts {

class CompiledInstance;  // compiled.hpp
class Engine;            // compiled.hpp
class Executor;          // job.hpp

/// All heuristics evaluated in the paper (Figs. 7, 9-13).
enum class HeuristicId {
  // baseline
  kOS,      ///< order of submission
  // static orders (§4.1)
  kOOSIM,   ///< Johnson order under the capacity
  kIOCMS,   ///< increasing communication time
  kDOCPS,   ///< decreasing computation time
  kIOCCS,   ///< increasing comm+comp
  kDOCCS,   ///< decreasing comm+comp
  // prior-work static baselines (§4.4)
  kGG,      ///< Gilmore-Gomory no-wait sequence
  kBP,      ///< First-Fit bin packing by memory
  // dynamic selection (§4.2)
  kLCMR,
  kSCMR,
  kMAMR,
  // static order with dynamic corrections (§4.3)
  kOOLCMR,
  kOOSCMR,
  kOOMAMR,
};

/// The paper's three heuristic families plus the submission baseline
/// (Figs. 10/12/13 compare the best variant of each family against OS).
enum class HeuristicCategory { kBaseline, kStatic, kDynamic, kCorrected };

struct HeuristicInfo {
  HeuristicId id;
  std::string_view name;  ///< paper acronym
  HeuristicCategory category;
  std::string_view description;
};

/// Metadata for every registered heuristic, in the paper's display order.
[[nodiscard]] std::span<const HeuristicInfo> all_heuristics() noexcept;

/// Ids only, in display order.
[[nodiscard]] std::vector<HeuristicId> all_heuristic_ids();

/// Ids belonging to one family.
[[nodiscard]] std::vector<HeuristicId> heuristics_in(HeuristicCategory cat);

[[nodiscard]] const HeuristicInfo& info(HeuristicId id) noexcept;
[[nodiscard]] std::string_view name_of(HeuristicId id) noexcept;
[[nodiscard]] std::string_view name_of(HeuristicCategory cat) noexcept;

/// Reverse lookup from the paper acronym (case-sensitive), e.g. "OOLCMR".
[[nodiscard]] std::optional<HeuristicId> heuristic_from_name(
    std::string_view name) noexcept;

/// Runs heuristic `id` over the tasks `ids` of the instance compiled as
/// `ci` on the live `engine`, writing their start times into `sched`.
/// `scope` holds those tasks alone, task k being `ids[k]` (the instance
/// itself when `ids` is every task in id order, otherwise its subset()).
/// The one dispatch from a heuristic to its order and selection
/// criterion: static orders are computed over `scope`, repaired against
/// its dependency edges, and issued in order; each transfer waits for
/// its predecessors' computation ends recorded in `sched`, so edges into
/// tasks scheduled earlier on the same schedule are honored. Throws
/// std::invalid_argument when a task can never fit or waits on a
/// predecessor that was never scheduled.
void run_heuristic_on(HeuristicId id, const Instance& scope,
                      const CompiledInstance& ci, std::span<const TaskId> ids,
                      Engine& engine, Schedule& sched);

/// Runs the heuristic over the whole instance on a fresh engine. Throws
/// std::invalid_argument when some task cannot fit in `capacity` at all.
[[nodiscard]] Schedule run_heuristic(HeuristicId id, const Instance& inst,
                                     Mem capacity);

/// Convenience: makespan of run_heuristic.
[[nodiscard]] Time heuristic_makespan(HeuristicId id, const Instance& inst,
                                      Mem capacity);

/// The paper's closing perspective: a runtime that exposes the heuristics
/// and selects the best one automatically. Scheduling is simulation, so
/// the auto-scheduler runs every candidate and keeps the best schedule.
struct HeuristicOutcome {
  HeuristicId id;
  Time makespan = kInfiniteTime;
};

struct AutoScheduleResult {
  HeuristicId best = HeuristicId::kOS;
  Schedule schedule;  ///< best schedule found
  Time makespan = kInfiniteTime;
  std::vector<HeuristicOutcome> outcomes;  ///< every candidate, in order
};

/// Runs every candidate on the whole instance and keeps the first one
/// with the strictly smallest makespan (ties go to the earlier
/// candidate). `executor` (job.hpp) runs the candidates concurrently;
/// null runs them serially. The winner does not depend on it. Throws
/// std::invalid_argument if a task exceeds the capacity.
[[nodiscard]] AutoScheduleResult auto_schedule(
    const Instance& inst, Mem capacity,
    std::span<const HeuristicId> candidates, Executor* executor = nullptr);

/// Serial fold over the whole registry.
[[nodiscard]] AutoScheduleResult auto_schedule(const Instance& inst,
                                               Mem capacity);

}  // namespace dts
