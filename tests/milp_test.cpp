/// Tests for the self-contained MILP backend (src/milp/): the dense
/// two-phase simplex core on known tableaux, the branch-and-bound driver
/// against the paper's Table 2 optimum and the other exact solvers, the
/// grid (milp:T) invariance contract, the anytime/cancellation behavior,
/// and the wire surfacing of the optimality certificate. Suite names all
/// carry "Milp" so the CI thread/audit jobs can select them with -R.

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "core/solver.hpp"
#include "exact/branch_bound.hpp"
#include "exact/exhaustive.hpp"
#include "milp/milp_solver.hpp"
#include "milp/model.hpp"
#include "milp/simplex.hpp"
#include "service/protocol.hpp"
#include "test_util.hpp"

namespace dts {
namespace {

using milp::LpProblem;
using milp::LpRow;
using milp::LpStatus;
using milp::RowType;
using milp::SimplexSolver;

LpRow row(std::vector<double> coeffs, RowType type, double rhs) {
  LpRow r;
  r.coeffs = std::move(coeffs);
  r.type = type;
  r.rhs = rhs;
  return r;
}

TEST(MilpSimplex, SolvesKnownTableau) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  (the classic
  // Dantzig example; optimum at (2, 6) with objective 36). Minimize the
  // negated objective.
  LpProblem lp;
  lp.num_vars = 2;
  lp.objective = {-3.0, -5.0};
  lp.rows.push_back(row({1.0, 0.0}, RowType::kLe, 4.0));
  lp.rows.push_back(row({0.0, 2.0}, RowType::kLe, 12.0));
  lp.rows.push_back(row({3.0, 2.0}, RowType::kLe, 18.0));
  SimplexSolver solver;
  const auto sol = solver.solve(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.objective, -36.0, 1e-9);
  EXPECT_NEAR(sol.x[0], 2.0, 1e-9);
  EXPECT_NEAR(sol.x[1], 6.0, 1e-9);
}

TEST(MilpSimplex, HandlesGeAndEqRows) {
  // min x + y s.t. x + y >= 2, x - y == 1 -> (1.5, 0.5), objective 2.
  LpProblem lp;
  lp.num_vars = 2;
  lp.objective = {1.0, 1.0};
  lp.rows.push_back(row({1.0, 1.0}, RowType::kGe, 2.0));
  lp.rows.push_back(row({1.0, -1.0}, RowType::kEq, 1.0));
  SimplexSolver solver;
  const auto sol = solver.solve(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 2.0, 1e-9);
  EXPECT_NEAR(sol.x[0], 1.5, 1e-9);
  EXPECT_NEAR(sol.x[1], 0.5, 1e-9);
}

TEST(MilpSimplex, NormalizesNegativeRhs) {
  // min x s.t. -x <= -3 (i.e. x >= 3).
  LpProblem lp;
  lp.num_vars = 1;
  lp.objective = {1.0};
  lp.rows.push_back(row({-1.0}, RowType::kLe, -3.0));
  SimplexSolver solver;
  const auto sol = solver.solve(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.x[0], 3.0, 1e-9);
}

TEST(MilpSimplex, DetectsInfeasible) {
  // x <= 1 and x >= 2 cannot both hold.
  LpProblem lp;
  lp.num_vars = 1;
  lp.objective = {1.0};
  lp.rows.push_back(row({1.0}, RowType::kLe, 1.0));
  lp.rows.push_back(row({1.0}, RowType::kGe, 2.0));
  SimplexSolver solver;
  EXPECT_EQ(solver.solve(lp).status, LpStatus::kInfeasible);
}

TEST(MilpSimplex, DetectsUnbounded) {
  // min -x s.t. x >= 1: x can grow forever.
  LpProblem lp;
  lp.num_vars = 1;
  lp.objective = {-1.0};
  lp.rows.push_back(row({1.0}, RowType::kGe, 1.0));
  SimplexSolver solver;
  EXPECT_EQ(solver.solve(lp).status, LpStatus::kUnbounded);
}

TEST(MilpSimplex, SurvivesDegeneracy) {
  // Redundant constraints meeting at one vertex: Bland's rule must not
  // cycle. min -x - y s.t. x + y <= 1 (twice), x <= 1, y <= 1.
  LpProblem lp;
  lp.num_vars = 2;
  lp.objective = {-1.0, -1.0};
  lp.rows.push_back(row({1.0, 1.0}, RowType::kLe, 1.0));
  lp.rows.push_back(row({1.0, 1.0}, RowType::kLe, 1.0));
  lp.rows.push_back(row({1.0, 0.0}, RowType::kLe, 1.0));
  lp.rows.push_back(row({0.0, 1.0}, RowType::kLe, 1.0));
  SimplexSolver solver;
  const auto sol = solver.solve(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.objective, -1.0, 1e-9);
}

TEST(MilpSimplex, ReportsPivotLimit) {
  LpProblem lp;
  lp.num_vars = 2;
  lp.objective = {-3.0, -5.0};
  lp.rows.push_back(row({1.0, 0.0}, RowType::kLe, 4.0));
  lp.rows.push_back(row({0.0, 2.0}, RowType::kLe, 12.0));
  SimplexSolver solver;
  EXPECT_EQ(solver.solve(lp, 1).status, LpStatus::kPivotLimit);
}

TEST(MilpSolver, MatchesTable2Optimum) {
  // Proposition 1's instance: the optimum (22 at capacity 10) needs
  // different transfer and computation orders, so matching it proves the
  // search really covers the independent pair space.
  const MilpResult res =
      solve_order_milp(testing::table2_instance(), testing::kTable2Capacity);
  EXPECT_TRUE(res.proved_optimal);
  EXPECT_NEAR(res.makespan, 22.0, 1e-9);
  EXPECT_EQ(res.lower_bound, res.makespan);
}

TEST(MilpSolver, AgreesWithBranchBoundOnRandomCorpus) {
  // Same engine-scored value set, same definitely_less incumbent
  // discipline: a proved milp incumbent and branch-bound's both sit
  // within the relative tolerance of the true optimum, so they agree up
  // to it (support/tolerance.hpp). (They may
  // be *different* equally-optimal schedules whose start-time sums round
  // differently in the last bits; the differential suite separately
  // checks the corpus where the values coincide bitwise.)
  Rng rng(77);
  for (int iter = 0; iter < 40; ++iter) {
    const Instance inst = testing::random_instance(rng, 2 + rng.index(3));
    const Mem capacity = testing::random_capacity(rng, inst, 2.0);
    MilpOptions options;
    options.max_nodes = 200000;
    const MilpResult mi = solve_order_milp(inst, capacity, options);
    const PairOrderResult bb = best_pair_order(inst, capacity);
    ASSERT_TRUE(mi.proved_optimal) << "iter " << iter;
    EXPECT_TRUE(approx_equal(mi.makespan, bb.makespan)) << "iter " << iter;
    EXPECT_TRUE(testing::feasible(inst, mi.schedule, capacity));
    EXPECT_EQ(mi.makespan, mi.schedule.makespan(inst));
  }
}

TEST(MilpSolver, AgreesWithBranchBoundOnDuplex) {
  Rng rng(78);
  for (int iter = 0; iter < 25; ++iter) {
    std::vector<Task> tasks;
    const std::size_t n = 2 + rng.index(3);
    for (std::size_t i = 0; i < n; ++i) {
      tasks.push_back(Task{.id = 0,
                           .comm = rng.uniform(0.5, 10.0),
                           .comp = rng.uniform(0.5, 10.0),
                           .mem = rng.uniform(0.1, 10.0),
                           .channel = static_cast<ChannelId>(rng.index(2)),
                           .name = {}});
    }
    const Instance inst{std::move(tasks)};
    const Mem capacity = testing::random_capacity(rng, inst, 2.0);
    MilpOptions options;
    options.max_nodes = 200000;
    const MilpResult mi = solve_order_milp(inst, capacity, options);
    const PairOrderResult bb = best_pair_order(inst, capacity);
    ASSERT_TRUE(mi.proved_optimal) << "iter " << iter;
    EXPECT_TRUE(approx_equal(mi.makespan, bb.makespan)) << "iter " << iter;
    EXPECT_TRUE(testing::feasible(inst, mi.schedule, capacity));
  }
}

TEST(MilpSolver, NeverWorseThanExhaustiveCommonOrders) {
  // Permutation schedules are a subset of the pair space (Proposition 1
  // shows the containment can be strict).
  Rng rng(79);
  for (int iter = 0; iter < 20; ++iter) {
    const Instance inst = testing::random_instance(rng, 4);
    const Mem capacity = testing::random_capacity(rng, inst, 2.0);
    MilpOptions options;
    options.max_nodes = 200000;
    const MilpResult mi = solve_order_milp(inst, capacity, options);
    const ExhaustiveResult ex = best_common_order(inst, capacity);
    ASSERT_TRUE(mi.proved_optimal);
    EXPECT_TRUE(approx_leq(mi.makespan, ex.makespan));
  }
}

TEST(MilpSolver, GridVariantsProveTheSameOptimum) {
  // milp:T only coarsens the *bound model* (snapped down, still a
  // relaxation); a finished search returns the identical proved-optimal
  // makespan for every T.
  Rng rng(80);
  for (int iter = 0; iter < 15; ++iter) {
    const Instance inst = testing::random_instance(rng, 4);
    const Mem capacity = testing::random_capacity(rng, inst, 2.0);
    MilpOptions exact;
    exact.max_nodes = 200000;
    const MilpResult base = solve_order_milp(inst, capacity, exact);
    ASSERT_TRUE(base.proved_optimal);
    for (const std::size_t grid : {4u, 8u, 32u}) {
      MilpOptions coarse = exact;
      coarse.grid = grid;
      const MilpResult res = solve_order_milp(inst, capacity, coarse);
      ASSERT_TRUE(res.proved_optimal) << "grid " << grid;
      EXPECT_TRUE(approx_equal(res.makespan, base.makespan)) << "grid " << grid;
    }
  }
}

TEST(MilpSolver, ProvedImpliesBoundMatchesAndBoundNeverExceedsMakespan) {
  Rng rng(81);
  for (int iter = 0; iter < 20; ++iter) {
    const Instance inst = testing::random_instance(rng, 3 + rng.index(2));
    const Mem capacity = testing::random_capacity(rng, inst, 2.0);
    MilpOptions options;
    options.max_nodes = iter % 2 == 0 ? 200000 : 5;  // alternate: starved
    const MilpResult res = solve_order_milp(inst, capacity, options);
    EXPECT_TRUE(testing::feasible(inst, res.schedule, capacity));
    EXPECT_TRUE(approx_leq(res.lower_bound, res.makespan));
    if (res.proved_optimal) {
      EXPECT_EQ(res.lower_bound, res.makespan);
    }
  }
}

TEST(MilpSolver, CancellationKeepsACompleteIncumbent) {
  // should_stop firing immediately: the warm start already produced a
  // complete feasible schedule, which must be returned unproven.
  Rng rng(82);
  const Instance inst = testing::random_instance(rng, 6);
  const Mem capacity = testing::random_capacity(rng, inst, 1.5);
  MilpOptions options;
  options.should_stop = [] { return true; };
  const MilpResult res = solve_order_milp(inst, capacity, options);
  EXPECT_TRUE(res.stopped);
  EXPECT_FALSE(res.proved_optimal);
  EXPECT_TRUE(testing::feasible(inst, res.schedule, capacity));
  EXPECT_LT(res.makespan, kInfiniteTime);
}

TEST(MilpSolver, EdgeCasesAndContracts) {
  const MilpResult empty = solve_order_milp(Instance{}, 1.0);
  EXPECT_TRUE(empty.proved_optimal);
  EXPECT_EQ(empty.makespan, 0.0);

  const Instance one = Instance::from_comm_comp({{2, 3}});
  const MilpResult single = solve_order_milp(one, 2.0);
  EXPECT_TRUE(single.proved_optimal);
  EXPECT_NEAR(single.makespan, 5.0, 1e-12);

  Rng rng(83);
  const Instance big = testing::random_instance(rng, 9);
  EXPECT_THROW((void)solve_order_milp(big, kInfiniteMem),
               std::invalid_argument);
  const Instance heavy = Instance::from_comm_comp({{5, 1}});
  EXPECT_THROW((void)solve_order_milp(heavy, 4.0), std::invalid_argument);
}

TEST(MilpRegistry, SolverKeyAndGridArguments) {
  const SolveRequest request{
      .instance = testing::table2_instance(),
      .capacity = testing::kTable2Capacity,
  };
  const SolveResult base = solve(request, "milp", {});
  EXPECT_TRUE(base.proved_optimal);
  EXPECT_NEAR(base.makespan, 22.0, 1e-9);
  EXPECT_EQ(base.lower_bound, base.makespan);
  EXPECT_EQ(base.optimality_gap(), 0.0);

  const SolveResult grid = solve(request, "milp:8", {});
  EXPECT_TRUE(grid.proved_optimal);
  EXPECT_EQ(grid.makespan, base.makespan);

  EXPECT_THROW((void)solve(request, "milp:0", {}), std::invalid_argument);
  EXPECT_THROW((void)solve(request, "milp:8:9", {}), std::invalid_argument);
  SolveRequest batched = request;
  batched.batch_size = 2;
  EXPECT_THROW((void)solve(batched, "milp", {}), std::invalid_argument);
}

TEST(MilpWire, OptimalityCertificateRoundTrips) {
  WireResponse response;
  response.status = WireResponse::Status::kOk;
  response.id = "req-1";
  response.winner = "milp";
  response.makespan = 22.0;
  response.evaluations = 7;
  response.proved_optimal = true;
  response.lower_bound = 22.0;
  response.gap = 0.0;
  response.order = {0, 1, 2};
  response.schedule = {{0.0, 1.0}, {1.0, 2.0}, {2.0, 3.0}};

  std::stringstream wire;
  write_response(wire, response);
  const auto parsed = read_response(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->proved_optimal);
  EXPECT_EQ(parsed->lower_bound, 22.0);
  ASSERT_TRUE(parsed->gap.has_value());
  EXPECT_EQ(*parsed->gap, 0.0);

  // Unproven path: no gap line when no positive bound exists.
  response.proved_optimal = false;
  response.lower_bound = 0.0;
  response.gap.reset();
  std::stringstream wire2;
  write_response(wire2, response);
  const auto parsed2 = read_response(wire2);
  ASSERT_TRUE(parsed2.has_value());
  EXPECT_FALSE(parsed2->proved_optimal);
  EXPECT_EQ(parsed2->lower_bound, 0.0);
  EXPECT_FALSE(parsed2->gap.has_value());
}

}  // namespace
}  // namespace dts
