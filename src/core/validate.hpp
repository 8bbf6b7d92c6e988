#pragma once

/// \file validate.hpp
/// Feasibility checker for schedules of problem DT. This is the ground
/// truth every heuristic, exact solver and property test is held against:
/// a schedule is feasible iff
///   (1) communication intervals are pairwise disjoint *per channel* —
///       transfers sharing a copy engine serialize, transfers on distinct
///       engines (e.g. H2D vs D2H) may overlap; the paper's model is the
///       one-channel case,
///   (2) computation intervals are pairwise disjoint (one processor),
///   (3) each task computes only after its transfer completed,
///   (4) at every instant, the memory held by tasks whose transfer has
///       started and whose computation has not finished is at most C,
///   (5) on a DAG instance, each task's transfer starts no earlier than
///       every predecessor's computation end (Task::deps edges).
/// Memory intervals are half-open [SCOMM(i), SCOMP(i)+CP(i)): memory
/// released at a computation-finish instant is immediately available to a
/// transfer starting at that same instant (required by the tight schedules
/// of the paper's 3-Partition reduction, Fig. 2). Instants are swept
/// exactly; the comparisons of time and memory amounts are the relative
/// ones of support/tolerance.hpp, the same the timing engine admits with,
/// so the check reads the same in any unit of time or memory.

#include <string>
#include <vector>

#include "core/instance.hpp"
#include "core/schedule.hpp"

namespace dts {

/// One feasibility violation; `detail` is human-readable.
struct Violation {
  enum class Kind {
    kUnscheduledTask,
    kCommOverlap,       ///< two transfers overlap on the same channel
    kCompOverlap,       ///< two computations overlap on the processor
    kComputeBeforeData, ///< SCOMP(i) < SCOMM(i) + CM(i)
    kMemoryExceeded,    ///< active memory above capacity
    kNegativeStart,
    kDependencyViolated,///< SCOMM(i) < a predecessor's computation end
  };
  Kind kind;
  TaskId a = kInvalidTask;
  TaskId b = kInvalidTask;
  std::string detail;
};

struct ValidationReport {
  std::vector<Violation> violations;
  Mem peak_memory = 0.0;  ///< max over time of active memory
  [[nodiscard]] bool ok() const noexcept { return violations.empty(); }
  [[nodiscard]] std::string summary() const;
};

/// Full feasibility check, O(n log n). Pass capacity = kInfiniteMem to
/// skip check (4).
[[nodiscard]] ValidationReport validate_schedule(const Instance& inst,
                                                 const Schedule& sched,
                                                 Mem capacity);

/// Peak of the active-memory envelope of a (complete) schedule, regardless
/// of any capacity. Exposed separately because benches report it.
[[nodiscard]] Mem peak_memory(const Instance& inst, const Schedule& sched);

}  // namespace dts
