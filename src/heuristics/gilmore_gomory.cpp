#include "heuristics/gilmore_gomory.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <stdexcept>

namespace dts {

namespace {

/// Disjoint-set union for the cycle-patching step.
class Dsu {
 public:
  explicit Dsu(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), std::size_t{0});
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  /// Returns true when the sets were distinct (and merges them).
  bool unite(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    parent_[a] = b;
    return true;
  }

 private:
  std::vector<std::size_t> parent_;
};

/// Tour cost of a successor array: sum over nodes of max(0, u[i]-v[succ[i]]).
double tour_cost(const std::vector<double>& u, const std::vector<double>& v,
                 const std::vector<std::size_t>& succ) {
  double cost = 0.0;
  for (std::size_t i = 0; i < succ.size(); ++i) {
    cost += std::max(0.0, u[i] - v[succ[i]]);
  }
  return cost;
}

/// True when succ is one cycle covering all nodes.
bool single_cycle(const std::vector<std::size_t>& succ) {
  std::size_t seen = 0;
  std::size_t node = 0;
  do {
    node = succ[node];
    ++seen;
    if (seen > succ.size()) return false;  // defensive: malformed array
  } while (node != 0);
  return seen == succ.size();
}

/// Applies the rank interchanges in the given order: interchange r swaps
/// the successors of the nodes at u-ranks r and r+1.
std::vector<std::size_t> apply_interchanges(
    std::vector<std::size_t> succ, const std::vector<std::size_t>& uord,
    std::span<const std::size_t> ranks) {
  for (std::size_t r : ranks) {
    std::swap(succ[uord[r]], succ[uord[r + 1]]);
  }
  return succ;
}

}  // namespace

Time no_wait_makespan(const Instance& inst, std::span<const TaskId> order) {
  if (order.empty()) return 0.0;
  Time start = 0.0;  // transfer start of the current task
  for (std::size_t k = 0; k + 1 < order.size(); ++k) {
    const Task& cur = inst[order[k]];
    const Task& nxt = inst[order[k + 1]];
    // Next transfer starts as soon as (a) the link is free and (b) the
    // no-wait computation slot right after it is free.
    start += cur.comm + std::max(0.0, cur.comp - nxt.comm);
  }
  const Task& last = inst[order.back()];
  return start + last.comm + last.comp;
}

std::vector<TaskId> gilmore_gomory_order(const Instance& inst) {
  const std::size_t n = inst.size();
  if (n <= 1) return inst.submission_order();

  // Node 0 is the dummy start/end job; node i+1 is task i.
  const std::size_t N = n + 1;
  std::vector<double> u(N), v(N);  // u: end state (CP), v: start state (CM)
  u[0] = 0.0;
  v[0] = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    u[i + 1] = inst[static_cast<TaskId>(i)].comp;
    v[i + 1] = inst[static_cast<TaskId>(i)].comm;
  }

  // Rank orders (stable on node index for determinism).
  std::vector<std::size_t> uord(N), vord(N);
  std::iota(uord.begin(), uord.end(), std::size_t{0});
  std::iota(vord.begin(), vord.end(), std::size_t{0});
  std::stable_sort(uord.begin(), uord.end(),
                   [&](std::size_t a, std::size_t b) { return u[a] < u[b]; });
  std::stable_sort(vord.begin(), vord.end(),
                   [&](std::size_t a, std::size_t b) { return v[a] < v[b]; });

  // Optimal assignment relaxation: r-th smallest end state feeds the r-th
  // smallest start state.
  std::vector<std::size_t> succ(N);
  for (std::size_t r = 0; r < N; ++r) succ[uord[r]] = vord[r];

  // Interchange costs between adjacent ranks.
  std::vector<double> eps(N - 1);
  for (std::size_t r = 0; r + 1 < N; ++r) {
    const double lo = std::max(u[uord[r]], v[vord[r]]);
    const double hi = std::min(u[uord[r + 1]], v[vord[r + 1]]);
    eps[r] = std::max(0.0, hi - lo);
  }

  // Kruskal: connect the assignment's sub-cycles with cheapest
  // interchanges. Initialize the DSU with the assignment cycles.
  Dsu dsu(N);
  for (std::size_t i = 0; i < N; ++i) dsu.unite(i, succ[i]);

  std::vector<std::size_t> edges(N - 1);
  std::iota(edges.begin(), edges.end(), std::size_t{0});
  std::stable_sort(edges.begin(), edges.end(), [&](std::size_t a, std::size_t b) {
    return eps[a] < eps[b];
  });
  std::vector<std::size_t> accepted;
  for (std::size_t r : edges) {
    if (dsu.unite(uord[r], uord[r + 1])) accepted.push_back(r);
  }
  std::sort(accepted.begin(), accepted.end());

  if (accepted.empty() && !single_cycle(succ)) {
    // Cannot happen: the N-1 adjacent edges always connect everything.
    throw std::logic_error("gilmore_gomory_order: patching failed");
  }

  // Candidate application orders. Every candidate yields a single tour
  // (the accepted edges span the cycle forest); they differ only in cost.
  std::vector<std::vector<std::size_t>> candidates;
  {
    // Ascending and descending.
    candidates.push_back(accepted);
    candidates.emplace_back(accepted.rbegin(), accepted.rend());

    // The classical two-group application rule: interchanges whose lower
    // rank has end state below start state (u_(r) <= v_(r)) are applied in
    // decreasing rank order, the others in increasing order afterwards.
    // This is the order that realizes the assignment + spanning-tree cost
    // bound exactly (validated against brute force in the test suite).
    // Both tie orientations and the mirrored grouping are kept as extra
    // candidates for robustness.
    const auto two_group = [&](auto in_group_one) {
      std::vector<std::size_t> g1, g2;
      for (std::size_t r : accepted) {
        (in_group_one(r) ? g1 : g2).push_back(r);
      }
      std::vector<std::size_t> seq(g1.rbegin(), g1.rend());  // g1 descending
      seq.insert(seq.end(), g2.begin(), g2.end());           // then g2 ascending
      return seq;
    };
    candidates.push_back(two_group(
        [&](std::size_t r) { return u[uord[r]] <= v[vord[r]]; }));
    candidates.push_back(two_group(
        [&](std::size_t r) { return u[uord[r]] < v[vord[r]]; }));
    candidates.push_back(two_group(
        [&](std::size_t r) { return u[uord[r + 1]] > v[vord[r + 1]]; }));
    candidates.push_back(two_group(
        [&](std::size_t r) { return u[uord[r + 1]] <= v[vord[r + 1]]; }));

    // Per-run best: maximal runs of consecutive ranks are independent
    // (they touch disjoint successor slots), so pick each run's cheaper
    // direction locally.
    std::vector<std::size_t> per_run;
    std::size_t i = 0;
    while (i < accepted.size()) {
      std::size_t j = i;
      while (j + 1 < accepted.size() && accepted[j + 1] == accepted[j] + 1) ++j;
      const std::span<const std::size_t> run(&accepted[i], j - i + 1);
      const std::vector<std::size_t> asc(run.begin(), run.end());
      const std::vector<std::size_t> desc(run.rbegin(), run.rend());
      const double cost_asc =
          tour_cost(u, v, apply_interchanges(succ, uord, asc));
      const double cost_desc =
          tour_cost(u, v, apply_interchanges(succ, uord, desc));
      const auto& chosen = cost_asc <= cost_desc ? asc : desc;
      per_run.insert(per_run.end(), chosen.begin(), chosen.end());
      i = j + 1;
    }
    candidates.push_back(std::move(per_run));
  }

  std::vector<std::size_t> best_succ;
  double best_cost = std::numeric_limits<double>::infinity();
  for (const auto& cand : candidates) {
    std::vector<std::size_t> s = apply_interchanges(succ, uord, cand);
    if (!single_cycle(s)) continue;  // defensive; theory says always single
    const double cost = tour_cost(u, v, s);
    if (cost < best_cost) {
      best_cost = cost;
      best_succ = std::move(s);
    }
  }
  if (best_succ.empty()) {
    throw std::logic_error("gilmore_gomory_order: no valid tour produced");
  }

  // Read the task sequence off the tour, starting after the dummy node.
  std::vector<TaskId> order;
  order.reserve(n);
  for (std::size_t node = best_succ[0]; node != 0; node = best_succ[node]) {
    order.push_back(static_cast<TaskId>(node - 1));
  }
  assert(order.size() == n);
  return order;
}

}  // namespace dts
