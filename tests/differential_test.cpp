/// Differential property test across the whole solver registry: ~200
/// seeded random instances (1-3 channels, 1-40 tasks) are pushed through
/// *every* registered solver via dts::solve(), and each result is held
/// against the library's own ground truths — validate_schedule() accepts
/// the schedule, the makespan respects the compute_bounds() lower bound,
/// and on sizes where the exact solvers are feasible their makespan is no
/// worse than any heuristic's (every heuristic schedule lives inside the
/// exact solvers' search space) — on multi-channel instances too, since
/// the per-channel order search. A solver whose listing declares
/// single-channel support only must reject duplex requests with
/// std::invalid_argument — never return a wrong schedule.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/bounds.hpp"
#include "core/solver.hpp"
#include "core/validate.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

namespace dts {
namespace {

/// Random instance over `channels` copy engines; durations in [0, 10],
/// memory decoupled from comm and strictly positive (so mc > 0), with the
/// zero-duration and integer-tie edge cases the paper's examples contain.
Instance random_multichannel_instance(Rng& rng, std::size_t n,
                                      std::size_t channels) {
  std::vector<Task> tasks;
  tasks.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Task t;
    t.comm = rng.uniform(0.0, 10.0);
    t.comp = rng.uniform(0.0, 10.0);
    if (rng.chance(0.08)) t.comm = 0.0;
    if (rng.chance(0.08)) t.comp = 0.0;
    if (rng.chance(0.25)) t.comm = std::floor(t.comm);
    if (rng.chance(0.25)) t.comp = std::floor(t.comp);
    t.mem = rng.uniform(0.1, 10.0);
    t.channel = static_cast<ChannelId>(rng.index(channels));
    tasks.push_back(std::move(t));
  }
  return Instance(std::move(tasks));
}

/// The registry keys this test drives, with the per-solver feasibility
/// rules that keep the exact searches tractable.
struct SolverPlan {
  std::string name;
  bool exact = false;  ///< participates in the "exact <= heuristic" check
  std::size_t max_n = 40;           ///< beyond this the solver is skipped
  /// Per-plan SolveOptions::max_iterations: exact tree searches need a
  /// budget that provably closes on their max_n, anytime heuristics a
  /// small one that bounds per-round work.
  std::size_t max_iterations = 200;
};

std::vector<SolverPlan> build_plans() {
  std::vector<SolverPlan> plans;
  for (const SolverListing& listing : list_solvers()) {
    SolverPlan plan;
    plan.name = listing.name;
    if (listing.name == "exhaustive") {
      plan.exact = true;
      plan.max_n = 7;  // 7! = 5040 simulations per instance
    } else if (listing.name == "branch-bound") {
      plan.exact = true;
      plan.max_n = 5;  // pruned (5!)^2 search, any channel count
    } else if (listing.name == "milp") {
      plan.exact = true;
      plan.max_n = 4;  // LP branch-and-bound closes in ~1k nodes here
      plan.max_iterations = 20000;  // node budget: proves on every n <= 4
    }
    plans.push_back(std::move(plan));
  }
  return plans;
}

TEST(Differential, EverySolverOnRandomCorpus) {
  const std::vector<SolverPlan> plans = build_plans();
  ASSERT_GE(plans.size(), 20u);  // 14 heuristics + the composite solvers

  Rng rng(20260729);
  SolveOptions options;
  options.max_iterations = 200;       // bounds local-search work per round
  options.parallel_candidates = false;
  options.compute_bounds = false;     // the test computes its own

  for (int round = 0; round < 200; ++round) {
    const std::size_t channels = 1 + rng.index(3);
    const std::size_t n = 1 + rng.index(40);
    const Instance inst = random_multichannel_instance(rng, n, channels);
    const Mem capacity = testing::random_capacity(rng, inst);
    const Bounds bounds = compute_bounds(inst);
    const SolveRequest request{.instance = inst, .capacity = capacity};
    SCOPED_TRACE("round " + std::to_string(round) + ": n=" +
                 std::to_string(n) + " channels=" + std::to_string(channels));

    std::map<std::string, Time> makespans;
    std::map<std::string, bool> proved;
    for (const SolverPlan& plan : plans) {
      if (n > plan.max_n) continue;
      SolveResult res;
      options.max_iterations = plan.max_iterations;
      ASSERT_NO_THROW(res = solve(request, plan.name, options)) << plan.name;
      EXPECT_TRUE(res.schedule.complete()) << plan.name;
      EXPECT_TRUE(testing::feasible(inst, res.schedule, capacity))
          << plan.name;
      EXPECT_DOUBLE_EQ(res.makespan, res.schedule.makespan(inst))
          << plan.name;
      // No schedule may beat the instance's lower bound.
      EXPECT_TRUE(approx_leq(bounds.omim_lower, res.makespan))
          << plan.name << ": makespan " << res.makespan
          << " beats the OMIM lower bound " << bounds.omim_lower;
      makespans[plan.name] = res.makespan;
      if (plan.exact) {
        proved[plan.name] = res.proved_optimal;
        // A solver claiming proof must back it with a matching bound.
        if (res.proved_optimal) {
          EXPECT_EQ(res.lower_bound, res.makespan) << plan.name;
        }
      }
    }

    // Exact agreement: milp and branch-bound minimize over the same
    // engine-scored (transfer order, comp order) space with the same
    // incumbent discipline, so where both run — single-channel and
    // duplex — their makespans are bitwise identical, and milp's node
    // budget is sized to prove optimality on every corpus size it sees.
    if (makespans.count("milp")) {
      EXPECT_TRUE(proved["milp"]) << "milp failed to close its tree";
      if (makespans.count("branch-bound")) {
        EXPECT_EQ(makespans["milp"], makespans["branch-bound"]);
      }
      // The permutation space is a subset of the pair space, so the
      // exhaustive makespan can never beat milp's.
      if (makespans.count("exhaustive")) {
        EXPECT_TRUE(approx_leq(makespans["milp"], makespans["exhaustive"]));
      }
    }

    // Exact solvers dominate: every heuristic's schedule is inside their
    // search space, so their makespan is no worse than anyone's.
    for (const SolverPlan& exact : plans) {
      if (!exact.exact || !makespans.count(exact.name)) continue;
      for (const auto& [name, ms] : makespans) {
        EXPECT_TRUE(approx_leq(makespans[exact.name], ms))
            << exact.name << " (" << makespans[exact.name]
            << ") beaten by " << name << " (" << ms << ")";
      }
    }
  }
}

/// Both window modes accept multi-channel instances; the pair mode's
/// per-window search must stay feasible while carrying the multi-clock
/// snapshot across window boundaries.
TEST(Differential, BothWindowModesSolveMultiChannel) {
  Rng rng(7);
  for (int round = 0; round < 10; ++round) {
    const Instance inst = random_multichannel_instance(rng, 10, 2);
    const Mem capacity = 2.0 * inst.min_capacity();
    const Bounds bounds = compute_bounds(inst);
    for (const char* solver : {"window:3", "window:3:pair"}) {
      const SolveResult res =
          solve({.instance = inst, .capacity = capacity}, solver);
      EXPECT_TRUE(testing::feasible(inst, res.schedule, capacity)) << solver;
      EXPECT_TRUE(approx_leq(bounds.omim_lower, res.makespan)) << solver;
    }
  }
}

}  // namespace
}  // namespace dts
