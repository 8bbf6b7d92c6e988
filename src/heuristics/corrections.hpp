#pragma once

/// \file corrections.hpp
/// Static order with dynamic corrections (paper §4.3). A precomputed order
/// (by default the Johnson / OMIM order) is followed verbatim while its
/// next task fits in memory. When the head of the order does not fit, the
/// scheduler falls back to dynamic selection — among the *fitting* pending
/// tasks that induce minimum processor idle, pick per criterion — and
/// removes the selected task from the pending order:
///
///   OOLCMR  divert to the largest-communication fitting task
///   OOSCMR  divert to the smallest-communication fitting task
///   OOMAMR  divert to the highest CP/CM fitting task
///
/// When nothing fits at all, the link idles until the next computation
/// releases memory, after which the head of the order gets priority again.

#include <span>
#include <string_view>
#include <vector>

#include "core/instance.hpp"
#include "core/compiled.hpp"
#include "core/schedule.hpp"
#include "heuristics/dynamic.hpp"

namespace dts {

/// Paper acronym of the corrected heuristic ("OOLCMR", ...).
[[nodiscard]] std::string_view to_corrected_acronym(DynamicCriterion c) noexcept;

/// Runs the corrected policy over `base_order` on `engine` (reset on
/// `ci`), writing start times into `out`. On a DAG instance the head is
/// followed, at its predecessors' latest computation end, only once they
/// are all scheduled. The one home of the correction loop
/// (tools/dts_lint.py `executor-one-home`). Repeated callers compile once
/// and reuse.
///
/// Cost. One CandidateIndex (heuristics/candidate_index.hpp) over
/// `base_order` answers the head of the order in amortized O(1) and every
/// correction exactly as execute_dynamic answers a pick. `stats`
/// (optional) accumulates the index's work counters.
void execute_corrected(const CompiledInstance& ci,
                       std::span<const TaskId> base_order,
                       DynamicCriterion criterion, Engine& engine,
                       Schedule& out, SelectionStats* stats = nullptr);

/// Corrected policy on a fresh engine with an explicit base order (the
/// paper's Fig. 6 examples feed a specific OMIM order). The paper's
/// OOLCMR / OOSCMR / OOMAMR run it over the Johnson order through
/// run_heuristic (core/registry.hpp).
[[nodiscard]] Schedule schedule_corrected_with_order(
    const Instance& inst, std::span<const TaskId> base_order,
    DynamicCriterion criterion, Mem capacity);

}  // namespace dts
