#include "milp/milp_solver.hpp"

#include <algorithm>
#include <optional>
#include <queue>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/compiled.hpp"
#include "core/registry.hpp"
#include "exact/branch_bound.hpp"
#include "milp/model.hpp"
#include "milp/simplex.hpp"
#include "support/contract.hpp"
#include "support/tolerance.hpp"

namespace dts {
namespace {

/// A pair variable whose LP value is within this of 0 or 1 counts as
/// integral. Far above the simplex pivot tolerance, far below 1/2.
constexpr double kIntegralityTol = 1e-6;

struct Node {
  /// Best known lower bound when created (the parent's LP bound): a
  /// valid optimistic priority, refined by this node's own LP at pop.
  double bound = 0.0;
  std::uint64_t id = 0;  ///< Creation order; the deterministic tie-break.
  std::vector<std::int8_t> fixed;
};

/// Best-first on the bound; ties pop the *youngest* node (LIFO), so runs
/// of equal bounds — common under the big-M relaxation, whose bound only
/// sharpens once fixings accumulate — are explored depth-first, diving to
/// closable subtrees instead of flooding the queue breadth-first. The pop
/// sequence stays a pure function of the instance.
struct NodeOrder {
  [[nodiscard]] bool operator()(const Node& a, const Node& b) const noexcept {
    if (a.bound != b.bound) return a.bound > b.bound;
    return a.id < b.id;
  }
};

/// Deterministic decode of a pair-variable assignment into a total
/// order: repeatedly emit the lowest-id task with no unemitted
/// predecessor. The relaxation cannot rule out cyclic tournaments on
/// zero-lag (cross-channel) pairs; a cycle falls back to the lowest-id
/// unemitted task and clears `consistent` — the decoded pair is still a
/// valid candidate schedule, it just does not witness this node's bound
/// (so the bound audit skips it).
template <typename Precedes>
std::vector<TaskId> decode_order(std::size_t n, const Precedes& precedes,
                                 bool& consistent) {
  std::vector<TaskId> order;
  order.reserve(n);
  std::vector<char> placed(n, 0);
  for (std::size_t step = 0; step < n; ++step) {
    TaskId pick = static_cast<TaskId>(n);
    for (TaskId j = 0; j < n; ++j) {
      if (placed[j]) continue;
      bool source = true;
      for (TaskId i = 0; i < n && source; ++i) {
        if (i == j || placed[i]) continue;
        const bool i_first = i < j ? precedes(i, j) : !precedes(j, i);
        if (i_first) source = false;
      }
      if (source) {
        pick = j;
        break;
      }
    }
    if (pick == static_cast<TaskId>(n)) {
      consistent = false;
      for (TaskId j = 0; j < n; ++j) {
        if (!placed[j]) {
          pick = j;
          break;
        }
      }
    }
    placed[pick] = 1;
    order.push_back(pick);
  }
  return order;
}

/// Transitive-closure propagation of order fixings, one family at a
/// time (offset 0 = transfer order, offset n_pairs = computation
/// order). Every engine-feasible decode is a permutation pair, so
/// "precedes" is transitive within a family: fixings imply fixings, and
/// a directed cycle among fixed pairs proves the subtree holds no
/// permutation decode at all. Returns false on such a contradiction.
bool propagate_closure(std::size_t n, std::size_t n_pairs,
                       const milp::OrderModelBuilder& builder,
                       std::vector<std::int8_t>& fixed) {
  for (const std::size_t offset : {std::size_t{0}, n_pairs}) {
    const auto before = [&](TaskId i, TaskId j) -> int {
      const std::int8_t q = i < j
                                ? fixed[offset + builder.pair_index(i, j)]
                                : fixed[offset + builder.pair_index(j, i)];
      if (q < 0) return -1;
      return i < j ? q : 1 - q;
    };
    bool changed = true;
    while (changed) {
      changed = false;
      for (TaskId i = 0; i < n; ++i) {
        for (TaskId j = 0; j < n; ++j) {
          if (i == j || before(i, j) != 1) continue;
          for (TaskId k = 0; k < n; ++k) {
            if (k == i || k == j || before(j, k) != 1) continue;
            std::int8_t& q =
                i < k ? fixed[offset + builder.pair_index(i, k)]
                      : fixed[offset + builder.pair_index(k, i)];
            const std::int8_t want = i < k ? std::int8_t{1} : std::int8_t{0};
            if (q == want) continue;
            if (q >= 0) return false;  // cycle: i < j < k but k <= i fixed
            q = want;
            changed = true;
          }
        }
      }
    }
  }
  return true;
}

struct Incumbent {
  Time makespan = kInfiniteTime;
  Schedule schedule;
  std::vector<TaskId> comm_order;
  std::vector<TaskId> comp_order;
};

/// Scores (comm, comp) through the engine co-simulation and adopts it
/// when it definitely improves — the exact incumbent discipline of
/// best_pair_order, so accepted values come from the same finite set.
bool try_improve(const Instance& inst, Mem capacity,
                 const Engine::Snapshot& fresh,
                 std::span<const TaskId> comm, std::span<const TaskId> comp,
                 Incumbent& best, Schedule& scratch) {
  const std::optional<Time> ms = simulate_pair_order(
      inst, comm, comp, capacity, fresh, best.makespan, scratch);
  if (!ms) return false;
  if (best.makespan != kInfiniteTime && !definitely_less(*ms, best.makespan)) {
    return false;
  }
  best.makespan = *ms;
  best.schedule = scratch;
  best.comm_order.assign(comm.begin(), comm.end());
  best.comp_order.assign(comp.begin(), comp.end());
  return true;
}

}  // namespace

MilpResult solve_order_milp(const Instance& inst, Mem capacity,
                            const MilpOptions& options) {
  const std::size_t n = inst.size();
  if (n > options.max_n) {
    throw std::invalid_argument(
        "milp: instance of " + std::to_string(n) +
        " tasks exceeds max_n = " + std::to_string(options.max_n));
  }
  if (inst.has_dependencies()) {
    // The order-binary model carries no precedence rows, so its LP bounds
    // would be invalid on a DAG; solve() rejects this before reaching
    // here (milp registers SolverTraits{.dag = false}), direct callers get
    // the same error.
    throw std::invalid_argument(
        "milp: the model has no precedence constraints; the instance "
        "declares dependency edges (use branch-bound or exhaustive)");
  }
  MilpResult result;
  if (n == 0) {
    result.makespan = 0.0;
    result.schedule = Schedule(0);
    result.proved_optimal = true;
    return result;
  }
  if (definitely_less(capacity, inst.min_capacity())) {
    throw std::invalid_argument("milp: a task exceeds the memory capacity");
  }

  Engine::Snapshot fresh;
  fresh.comm_available.assign(inst.num_channels(), 0.0);

  // Warm start: decode every registry heuristic's schedule into its
  // (comm, comp) order pair and co-simulate it — the semi-active
  // co-simulation of a feasible schedule's orders is feasible and never
  // later, so this always yields an incumbent at least as good as the
  // best heuristic.
  Incumbent best;
  Schedule scratch(n);
  for (HeuristicId id : all_heuristic_ids()) {
    const Schedule s = run_heuristic(id, inst, capacity);
    try_improve(inst, capacity, fresh, s.comm_order(), s.comp_order(), best,
                scratch);
  }
  if (best.makespan == kInfiniteTime) {
    const std::vector<TaskId> sub = inst.submission_order();
    try_improve(inst, capacity, fresh, sub, sub, best, scratch);
  }

  const Time ext_lb = options.lower_bound;
  const auto finish = [&](bool proved, Time root_bound) {
    result.makespan = best.makespan;
    result.schedule = best.schedule;
    result.comm_order = best.comm_order;
    result.comp_order = best.comp_order;
    result.proved_optimal = proved;
    result.lower_bound =
        proved ? best.makespan
               : std::min(best.makespan, std::max(ext_lb, root_bound));
    return result;
  };
  if (ext_lb > 0.0 && approx_leq(best.makespan, ext_lb)) {
    // The warm start already reached a proven bound.
    return finish(/*proved=*/true, ext_lb);
  }

  const CompiledInstance ci(inst);
  milp::OrderModelBuilder builder(ci, options.grid, best.makespan);
  milp::SimplexSolver simplex;
  const std::size_t n_pairs = builder.num_pairs();
  const std::size_t n_pair_vars = builder.num_pair_vars();
  std::vector<std::size_t> col_of;

  const auto pair_index = [&builder](TaskId i, TaskId j) {
    return builder.pair_index(i, j);
  };

  std::priority_queue<Node, std::vector<Node>, NodeOrder> open;
  std::uint64_t next_id = 0;
  {
    Node root;
    root.bound = std::max(0.0, ext_lb);
    root.id = next_id++;
    root.fixed.assign(n_pair_vars, -1);
    open.push(std::move(root));
  }

  const auto stop_requested = [&options] {
    return options.should_stop && options.should_stop();
  };

  Time root_bound = 0.0;
  bool proved_early = false;
  bool over_budget = false;

  while (!open.empty()) {
    if (stop_requested()) {
      result.stopped = true;
      break;
    }
    if (result.nodes_explored >= options.max_nodes) {
      over_budget = true;
      break;
    }
    const Node node = open.top();
    open.pop();
    ++result.nodes_explored;
    if (!definitely_less(node.bound, best.makespan)) continue;

    const milp::LpProblem& lp =
        builder.emit(best.makespan, node.fixed, col_of);
    const milp::LpSolution sol = simplex.solve(lp);
    result.lp_pivots += sol.pivots;
    if (sol.status == milp::LpStatus::kInfeasible) continue;
    // kUnbounded cannot happen (M is minimized and bounded below by the
    // makespan rows); kPivotLimit keeps the inherited bound.
    double bound = node.bound;
    const bool have_lp = sol.status == milp::LpStatus::kOptimal;
    if (have_lp) {
      bound = std::max(bound, sol.objective);
      if (node.id == 0) root_bound = sol.objective;
      if (!definitely_less(bound, best.makespan)) continue;
    }

    // Rounded value of pair variable p under this node's LP solution.
    const auto pair_rounded = [&](std::size_t p) -> int {
      if (node.fixed[p] >= 0) return node.fixed[p];
      return sol.x[col_of[p]] >= 0.5 ? 1 : 0;
    };

    bool integral = have_lp;
    if (have_lp) {
      for (std::size_t p = 0; integral && p < n_pair_vars; ++p) {
        if (node.fixed[p] >= 0) continue;
        const double v = sol.x[col_of[p]];
        integral = std::min(v, 1.0 - v) <= kIntegralityTol;
      }
      // Rounding decode at *every* LP node, not only integral ones: a
      // cheap engine co-simulation per node that keeps the incumbent
      // tight enough for pruning (and the lower-bound early exit) to
      // bite under the big-M relaxation's weak fractional bounds.
      bool consistent = true;
      const std::vector<TaskId> comm = decode_order(
          n,
          [&](TaskId i, TaskId j) {
            return pair_rounded(pair_index(i, j)) == 1;
          },
          consistent);
      const std::vector<TaskId> comp = decode_order(
          n,
          [&](TaskId i, TaskId j) {
            return pair_rounded(n_pairs + pair_index(i, j)) == 1;
          },
          consistent);
      ++result.leaves_scored;
      const std::optional<Time> ms = simulate_pair_order(
          inst, comm, comp, capacity, fresh, best.makespan, scratch);
      if (ms) {
        // The relaxation-soundness contract: a node's LP bound never
        // exceeds the engine makespan of an integral decode honoring its
        // tournament (a rounded fractional decode witnesses nothing).
        DTS_AUDIT(!(integral && consistent) || approx_leq(bound, *ms),
                  "milp: node relaxation bound exceeds its leaf's engine "
                  "makespan");
        if (definitely_less(*ms, best.makespan)) {
          best.makespan = *ms;
          best.schedule = scratch;
          best.comm_order = comm;
          best.comp_order = comp;
          if (ext_lb > 0.0 && approx_leq(best.makespan, ext_lb)) {
            proved_early = true;
            break;
          }
        }
      }
    }

    // Branch: most fractional pair variable (ties to the lowest index);
    // an integral-but-unfixed node still branches — its LP happened to
    // sit at one assignment, but the engine makespans of the others in
    // this subtree are not bounded by that assignment's score.
    std::size_t branch_var = n_pair_vars;
    if (have_lp) {
      double best_frac = kIntegralityTol;
      for (std::size_t p = 0; p < n_pair_vars; ++p) {
        if (node.fixed[p] >= 0) continue;
        const double v = sol.x[col_of[p]];
        const double frac = std::min(v, 1.0 - v);
        if (frac > best_frac) {
          best_frac = frac;
          branch_var = p;
        }
      }
    }
    if (branch_var == n_pair_vars) {
      for (std::size_t p = 0; p < n_pair_vars; ++p) {
        if (node.fixed[p] < 0) {
          branch_var = p;
          break;
        }
      }
    }
    if (branch_var == n_pair_vars) continue;  // true leaf: fully fixed
    // Push the LP-rounded direction last: LIFO tie-breaking pops it
    // first, so the dive follows the relaxation's preference.
    const std::int8_t preferred =
        have_lp ? static_cast<std::int8_t>(pair_rounded(branch_var))
                : std::int8_t{1};
    for (const std::int8_t v :
         {static_cast<std::int8_t>(1 - preferred), preferred}) {
      Node child;
      child.bound = bound;
      child.id = next_id++;
      child.fixed = node.fixed;
      child.fixed[branch_var] = v;
      // Propagate transitivity; a contradicted child holds no
      // permutation decode and is never pushed.
      if (!propagate_closure(n, n_pairs, builder, child.fixed)) continue;
      open.push(std::move(child));
    }
  }

  DTS_AUDIT(approx_leq(root_bound, best.makespan),
            "milp: root relaxation bound exceeds the incumbent");
  const bool proved =
      proved_early || (!result.stopped && !over_budget && open.empty());
  return finish(proved, root_bound);
}

}  // namespace dts
