#include "exact/exhaustive.hpp"

#include <algorithm>
#include <stdexcept>
#include <tuple>

#include "core/compiled.hpp"
#include "core/job.hpp"

namespace dts {

namespace {

/// Value key: permutations that differ only in the placement of identical
/// tasks produce identical schedules, so we enumerate value-distinct
/// sequences only.
std::tuple<Time, Time, Mem> value_key(const Task& t) {
  return {t.comm, t.comp, t.mem};
}

/// Fan out across first-task branches only when the tail enumeration is
/// long enough to amortize the scheduling overhead (5! = 120 simulations
/// per branch and up).
constexpr std::size_t kParallelMinTasks = 6;

/// Makespan first, then earliest link-free instant (matters when solving
/// windows: leave the link free for the tasks that follow). Exact
/// comparison, deliberately not the epsilon helpers: a strict weak
/// ordering makes the keep-first-better fold associative under grouping,
/// so the parallel branch fold provably selects the same candidate as
/// the serial scan (an epsilon comparison is not transitive and could
/// pick different orders on ties straddling the tolerance).
bool better_candidate(Time ms, Time link_free, const ExhaustiveResult& best,
                      Time best_link_free) {
  if (ms != best.makespan) return ms < best.makespan;
  return link_free < best_link_free;
}

/// Scans every value-distinct permutation of order[fixed..n) — the prefix
/// is pinned — accumulating the winner into `result`/`best_link_free`.
/// With fixed == 0 this is exactly the full serial enumeration.
void scan_orders(const Instance& inst, Mem capacity,
                 const ExhaustiveOptions& options, std::vector<TaskId> order,
                 std::size_t fixed, ExhaustiveResult& result,
                 Time& best_link_free) {
  // Dependency edges break the identical-task collapse (two value-equal
  // tasks may have different successors), so DAG instances enumerate full
  // permutations — ids break value ties — and skip the non-topological
  // ones, which no feasible schedule can realize.
  const bool dag = inst.has_dependencies();
  const auto value_less = [&](TaskId a, TaskId b) {
    const auto ka = value_key(inst[a]);
    const auto kb = value_key(inst[b]);
    if (ka != kb) return ka < kb;
    return dag && a < b;
  };
  // next_permutation edits the tail of the sequence, so consecutive
  // permutations share a long prefix — the prefix-resume evaluator
  // resimulates only the changed suffix (~e tasks per permutation on
  // average, independent of n). The winner's Schedule and carried
  // snapshot are rebuilt by one recording evaluation only when the
  // incumbent improves, which is rare.
  const CompiledInstance compiled(inst);
  PrefixResumeEvaluator evaluator =
      options.initial_state
          ? PrefixResumeEvaluator(compiled, capacity, *options.initial_state)
          : PrefixResumeEvaluator(compiled, capacity);
  if (!options.ready_times.empty()) {
    evaluator.set_external_ready(options.ready_times);
  }
  Engine engine;
  do {
    if (dag && !inst.is_topological_order(order)) continue;
    // Amortized like best_pair_order's poll; polling at 0 makes an
    // already-fired token return before any work.
    if (options.should_stop && (result.permutations_tried & 0xFFu) == 0 &&
        options.should_stop()) {
      result.stopped = true;
      break;
    }
    ++result.permutations_tried;
    const Time ms = evaluator.set_reference(order);
    const Time link_free = evaluator.last_state().comm_available();
    if (result.order.empty() ||
        better_candidate(ms, link_free, result, best_link_free)) {
      Schedule sched(inst.size());
      (void)evaluate_order(compiled, order, capacity, engine, sched,
                           options.initial_state ? &*options.initial_state
                                                 : nullptr,
                           options.ready_times);
      result.makespan = ms;
      result.order = order;
      result.schedule = std::move(sched);
      result.final_state = engine.snapshot();
      best_link_free = link_free;
    }
  } while (std::next_permutation(order.begin() +
                                     static_cast<std::ptrdiff_t>(fixed),
                                 order.end(), value_less));
}

}  // namespace

ExhaustiveResult best_common_order(const Instance& inst, Mem capacity,
                                   const ExhaustiveOptions& options) {
  if (inst.size() > options.max_n) {
    throw std::invalid_argument(
        "best_common_order: instance too large for exhaustive search (n=" +
        std::to_string(inst.size()) + ", max=" + std::to_string(options.max_n) +
        ")");
  }
  ExhaustiveResult result;
  if (inst.empty()) {
    result.makespan = 0.0;
    return result;
  }

  // Mirror scan_orders' comparator (see there): ids break value ties on
  // DAG instances so the branch partition matches the serial enumeration.
  const bool dag = inst.has_dependencies();
  const auto value_less = [&](TaskId a, TaskId b) {
    const auto ka = value_key(inst[a]);
    const auto kb = value_key(inst[b]);
    if (ka != kb) return ka < kb;
    return dag && a < b;
  };
  std::vector<TaskId> order = inst.submission_order();
  std::sort(order.begin(), order.end(), value_less);

  if (!options.executor || inst.size() < kParallelMinTasks) {
    Time best_link_free = kInfiniteTime;
    scan_orders(inst, capacity, options, std::move(order), 0, result,
                best_link_free);
    return result;
  }

  // One branch per value-distinct first task, in sorted order. Branch b
  // enumerates exactly the lexicographic block of permutations starting
  // with that value, so the branches concatenated in branch order are the
  // serial enumeration sequence.
  std::vector<std::vector<TaskId>> branches;
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (i > 0 && !value_less(order[i - 1], order[i])) continue;  // duplicate
    std::vector<TaskId> branch = order;
    std::rotate(branch.begin(), branch.begin() + static_cast<std::ptrdiff_t>(i),
                branch.begin() + static_cast<std::ptrdiff_t>(i) + 1);
    branches.push_back(std::move(branch));
  }

  std::vector<ExhaustiveResult> partial(branches.size());
  std::vector<Time> partial_link(branches.size(), kInfiniteTime);
  options.executor->for_each(branches.size(), [&](std::size_t b) {
    scan_orders(inst, capacity, options, std::move(branches[b]), 1,
                partial[b], partial_link[b]);
  });

  // Fold branch winners in branch (= serial enumeration) order with the
  // same strict-preference rule as the inner scans.
  // A branch with no order (no topological one, or stopped first) has
  // nothing to offer.
  Time best_link_free = kInfiniteTime;
  std::uint64_t tried = 0;
  bool stopped = false;
  for (std::size_t b = 0; b < partial.size(); ++b) {
    tried += partial[b].permutations_tried;
    stopped = stopped || partial[b].stopped;
    if (partial[b].order.empty()) continue;
    if (result.order.empty() ||
        better_candidate(partial[b].makespan, partial_link[b], result,
                         best_link_free)) {
      result = std::move(partial[b]);
      best_link_free = partial_link[b];
    }
  }
  result.permutations_tried = tried;
  result.stopped = stopped;
  return result;
}

}  // namespace dts
