#include "heuristics/local_search.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/compiled.hpp"
#include "core/registry.hpp"
#include "core/simulate.hpp"
#include "support/rng.hpp"
#include "support/tolerance.hpp"

namespace dts {

namespace {

/// Applies a random move in place; returns false when the move is a no-op
/// (degenerate indices), in which case the caller retries.
bool random_move(Rng& rng, std::vector<TaskId>& order) {
  const std::size_t n = order.size();
  if (n < 2) return false;
  switch (rng.uniform_u64(0, 2)) {
    case 0: {  // adjacent swap
      const std::size_t i = rng.index(n - 1);
      std::swap(order[i], order[i + 1]);
      return true;
    }
    case 1: {  // arbitrary pair swap
      const std::size_t i = rng.index(n);
      const std::size_t j = rng.index(n);
      if (i == j) return false;
      std::swap(order[i], order[j]);
      return true;
    }
    default: {  // relocation
      const std::size_t from = rng.index(n);
      const std::size_t to = rng.index(n);
      if (from == to) return false;
      const TaskId task = order[from];
      order.erase(order.begin() + static_cast<std::ptrdiff_t>(from));
      order.insert(order.begin() + static_cast<std::ptrdiff_t>(to), task);
      return true;
    }
  }
}

}  // namespace

LocalSearchResult improve_order(const Instance& inst, Mem capacity,
                                std::span<const TaskId> initial,
                                const LocalSearchOptions& options) {
  if (initial.size() != inst.size()) {
    throw std::invalid_argument("improve_order: order must cover all tasks");
  }
  LocalSearchResult result;
  result.order.assign(initial.begin(), initial.end());
  const bool dag = inst.has_dependencies();
  // A DAG seed must be executable; repair it minimally (identity when the
  // caller already passed a topological order, and on edge-free
  // instances).
  if (dag) result.order = legalize_order(inst, result.order);
  // Candidate scoring: one SoA compilation of the instance, checkpoints
  // along the incumbent order, and per-candidate resimulation of only the
  // suffix after the move (bit-identical makespans to a full run — the
  // search trajectory is unchanged, it just stops paying a Schedule +
  // full resimulation per candidate).
  const CompiledInstance compiled(inst);
  PrefixResumeEvaluator evaluator(compiled, capacity);
  result.initial_makespan = evaluator.set_reference(result.order);
  result.makespan = result.initial_makespan;

  if (inst.size() < 2) {
    // No moves exist; the seed order is the only order.
    result.schedule = simulate_order(inst, result.order, capacity);
    return result;
  }

  Rng rng(options.seed ^ 0x4C6F63616C5365ULL);  // "LocalSe"
  std::vector<TaskId> candidate;
  std::size_t since_improve = 0;
  std::size_t degenerate_draws = 0;
  const auto stop_requested = [&options] {
    return options.should_stop && options.should_stop();
  };
  while (result.iterations < options.max_iterations &&
         since_improve < options.max_no_improve) {
    if (stop_requested()) {
      result.stopped = true;
      break;
    }
    candidate = result.order;
    if (!random_move(rng, candidate) ||
        (dag && !inst.is_topological_order(candidate))) {
      // Degenerate draw (i == j) or a move that breaks a dependency edge;
      // bounded retries keep the loop finite either way.
      if (++degenerate_draws > 4 * options.max_iterations) break;
      continue;
    }
    ++result.iterations;
    const Time ms = evaluator.evaluate(candidate);
    if (definitely_less(ms, result.makespan)) {
      result.makespan = ms;
      result.order = std::move(candidate);
      // Re-checkpoint along the new incumbent; only the suffix past the
      // move's first changed position is resimulated.
      evaluator.set_reference(result.order);
      ++result.improvements;
      since_improve = 0;
    } else {
      ++since_improve;
    }
  }
  result.schedule = simulate_order(inst, result.order, capacity);
  return result;
}

LocalSearchResult schedule_local_search(const Instance& inst, Mem capacity,
                                        const LocalSearchOptions& options) {
  if (options.should_stop && options.should_stop()) {
    // Already past the deadline: skip the auto-scheduler seed pass too
    // (it simulates every registered heuristic) and return the cheapest
    // complete feasible schedule, the submission order.
    LocalSearchResult result =
        improve_order(inst, capacity, inst.submission_order(), options);
    result.stopped = true;
    return result;
  }
  const AutoScheduleResult seed = auto_schedule(inst, capacity);
  const std::vector<TaskId> initial = seed.schedule.comm_order();
  return improve_order(inst, capacity, initial, options);
}

}  // namespace dts
