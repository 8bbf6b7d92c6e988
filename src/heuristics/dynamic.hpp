#pragma once

/// \file dynamic.hpp
/// Dynamic selection heuristics (paper §4.2). Whenever the link goes idle,
/// the scheduler examines the tasks that fit in the memory currently
/// available, keeps those that inject the least idle time on the processor,
/// and picks one according to a criterion:
///
///   LCMR  largest communication time
///   SCMR  smallest communication time
///   MAMR  maximum CP/CM ratio ("maximum accelerated")
///
/// If nothing fits, the link stays idle until the next computation finishes
/// and releases memory. Communication and computation keep a common order.

#include <algorithm>
#include <cstdint>
#include <span>
#include <string_view>

#include "core/compiled.hpp"
#include "core/instance.hpp"
#include "core/schedule.hpp"

namespace dts {

enum class DynamicCriterion {
  kLargestComm,      ///< LCMR / OOLCMR
  kSmallestComm,     ///< SCMR / OOSCMR
  kMaxAcceleration,  ///< MAMR / OOMAMR
};

/// Paper acronym of the pure dynamic heuristic ("LCMR", ...).
[[nodiscard]] std::string_view to_acronym(DynamicCriterion c) noexcept;

/// Idle time a transfer of length `comm` starting at `start` injects on a
/// processor free at `comp_available`: max(0, start + comm - comp_available).
/// The dynamic and correction heuristics minimize it over candidates
/// (§4.2); with several channels `start` is the candidate's own channel
/// clock, so a task whose engine is free beats one whose engine is busy.
/// Every selection path evaluates this one expression, so their idles
/// agree bit for bit.
[[nodiscard]] inline Time induced_idle(Time start, Time comm,
                                       Time comp_available) noexcept {
  return std::max(0.0, start + comm - comp_available);
}

/// Among `candidates` (ids into `ci`, all assumed to fit in memory at the
/// engine's current instant), returns the id the paper's rule prefers —
/// minimum induced processor idle first, then the criterion — as one
/// sequential scan: the first candidate is the running best, and a later
/// candidate replaces it when its idle is definitely_less than the running
/// best idle, or when the two idles are tolerance-tied (neither
/// definitely less) and it is strictly better under the criterion; the
/// running best idle then becomes the replacing candidate's idle. Without
/// near-ties (every pair of idles either equal or definitely apart) this is
/// "minimum idle, then the criterion, then the earliest position"; with
/// tolerance chaining the winner can depend on the scan order. Returns
/// kInvalidTask when `candidates` is empty.
///
/// `ready` (optional, aligned with `candidates`) floors each candidate's
/// hypothetical transfer start at its predecessors' completion instant,
/// so the induced-idle score matches what issuing it would actually do on
/// a DAG instance; empty means no floors (the paper's model).
///
/// This linear scan is the indexed selection's near-tie fallback and its
/// test reference.
[[nodiscard]] TaskId pick_candidate(const CompiledInstance& ci,
                                    const Engine& engine,
                                    std::span<const TaskId> candidates,
                                    DynamicCriterion criterion,
                                    std::span<const Time> ready = {});

/// Work counters of the indexed candidate selection
/// (heuristics/candidate_index.hpp), accumulated across executor calls:
/// the deterministic cost signal the complexity guard fits its scaling
/// exponent to.
struct SelectionStats {
  std::uint64_t picks = 0;           ///< dynamic picks answered
  std::uint64_t fallback_picks = 0;  ///< picks the near-tie guard rescanned
  /// Segment-tree nodes touched, binary-search steps and tasks visited in
  /// the list of eligible tasks floored after their channel's start.
  std::uint64_t nodes_visited = 0;
  /// Tasks the near-tie fallback scans visited (their tie clusters).
  std::uint64_t fallback_scanned = 0;

  [[nodiscard]] std::uint64_t work() const noexcept {
    return nodes_visited + fallback_scanned;
  }
  SelectionStats& operator+=(const SelectionStats& o) noexcept {
    picks += o.picks;
    fallback_picks += o.fallback_picks;
    nodes_visited += o.nodes_visited;
    fallback_scanned += o.fallback_scanned;
    return *this;
  }
};

/// Schedules every id in `ids` on `engine` (reset on `ci`) using dynamic
/// selection, writing start times into `out`. `ids` supplies the
/// tie-breaking priority (its order is the submission order within a
/// batch). On a DAG instance only
/// tasks whose predecessors have all been scheduled (in `out` — possibly
/// by an earlier batch sharing it) are candidates, and each transfer
/// waits for its predecessors' computations; throws std::invalid_argument
/// when every pending task waits on a predecessor outside `ids` that was
/// never scheduled.
///
/// The one home of the dynamic scheduling loop (tools/dts_lint.py
/// `executor-one-home` keeps it that way). Repeated callers (the batch
/// scheduler) compile once and reuse.
///
/// Cost. One CandidateIndex (heuristics/candidate_index.hpp) answers
/// every pick in O(log n), plus a scan of the few eligible tasks whose
/// predecessors finish after their channel frees, and returns exactly the
/// task the linear pick_candidate scan would (a pick whose minimum idle
/// is tolerance-tied with another idle goes to that scan, over the tied
/// tasks only). `stats` (optional) accumulates the index's work counters.
void execute_dynamic(const CompiledInstance& ci, std::span<const TaskId> ids,
                     DynamicCriterion criterion, Engine& engine,
                     Schedule& out, SelectionStats* stats = nullptr);

}  // namespace dts
