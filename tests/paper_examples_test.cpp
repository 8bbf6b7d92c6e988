/// Golden tests reproducing the paper's worked examples tick for tick:
///   Fig. 4 — the six static orders on Table 3 with capacity 6;
///   Fig. 5 — the three dynamic heuristics on Table 4 with capacity 6;
///   Fig. 6 — the three corrections heuristics on Table 5 with capacity 9
///            (base order B C D A E as printed in the figure caption);
///   Fig. 3 / Proposition 1 — on Table 2 with capacity 10 the best
///            permutation schedule has makespan 23, but allowing different
///            communication and computation orders reaches 22.

#include <gtest/gtest.h>

#include "core/johnson.hpp"
#include "core/registry.hpp"
#include "core/simulate.hpp"
#include "exact/branch_bound.hpp"
#include "exact/exhaustive.hpp"
#include "heuristics/corrections.hpp"
#include "heuristics/dynamic.hpp"
#include "test_util.hpp"

namespace dts {
namespace {

using testing::feasible;
using testing::kTable2Capacity;
using testing::kTable3Capacity;
using testing::kTable4Capacity;
using testing::kTable5Capacity;
using testing::table2_instance;
using testing::table3_instance;
using testing::table4_instance;
using testing::table5_instance;
using testing::table5_paper_omim_order;

// Task ids in the Tables are alphabetical: A=0, B=1, ...
constexpr TaskId A = 0, B = 1, C = 2, D = 3, E = 4, F = 5;

void expect_times(const Schedule& s, TaskId id, Time comm_start,
                  Time comp_start) {
  EXPECT_DOUBLE_EQ(s[id].comm_start, comm_start)
      << "comm start of task " << id;
  EXPECT_DOUBLE_EQ(s[id].comp_start, comp_start)
      << "comp start of task " << id;
}

// ---------------------------------------------------------------- Fig. 4

TEST(Fig4StaticOrders, JohnsonInfiniteMemoryMakespan12) {
  const Instance inst = table3_instance();
  EXPECT_EQ(johnson_order(inst), (std::vector<TaskId>{B, C, A, D}));
  const Schedule s = johnson_schedule(inst);
  EXPECT_DOUBLE_EQ(s.makespan(inst), 12.0);
  expect_times(s, B, 0, 1);
  expect_times(s, C, 1, 5);
  expect_times(s, A, 5, 9);
  expect_times(s, D, 8, 11);
}

TEST(Fig4StaticOrders, OosimMakespan15) {
  const Instance inst = table3_instance();
  const Schedule s = run_heuristic(HeuristicId::kOOSIM, inst, kTable3Capacity);
  EXPECT_TRUE(feasible(inst, s, kTable3Capacity));
  EXPECT_DOUBLE_EQ(s.makespan(inst), 15.0);
  expect_times(s, B, 0, 1);
  expect_times(s, C, 1, 5);
  expect_times(s, A, 9, 12);   // blocked: C holds 4 of 6 until t=9
  expect_times(s, D, 12, 14);
}

TEST(Fig4StaticOrders, IocmsMakespan16) {
  const Instance inst = table3_instance();
  const Schedule s = run_heuristic(HeuristicId::kIOCMS, inst, kTable3Capacity);
  EXPECT_TRUE(feasible(inst, s, kTable3Capacity));
  EXPECT_DOUBLE_EQ(s.makespan(inst), 16.0);
  expect_times(s, B, 0, 1);
  expect_times(s, D, 1, 4);
  expect_times(s, A, 3, 6);
  expect_times(s, C, 8, 12);
}

TEST(Fig4StaticOrders, DocpsMakespan14) {
  const Instance inst = table3_instance();
  const Schedule s = run_heuristic(HeuristicId::kDOCPS, inst, kTable3Capacity);
  EXPECT_TRUE(feasible(inst, s, kTable3Capacity));
  EXPECT_DOUBLE_EQ(s.makespan(inst), 14.0);
  expect_times(s, C, 0, 4);
  expect_times(s, B, 4, 8);
  expect_times(s, A, 8, 11);
  expect_times(s, D, 11, 13);
}

TEST(Fig4StaticOrders, IoccsMakespan16) {
  const Instance inst = table3_instance();
  const Schedule s = run_heuristic(HeuristicId::kIOCCS, inst, kTable3Capacity);
  EXPECT_TRUE(feasible(inst, s, kTable3Capacity));
  EXPECT_DOUBLE_EQ(s.makespan(inst), 16.0);
  expect_times(s, D, 0, 2);
  expect_times(s, B, 2, 3);
  expect_times(s, A, 3, 6);
  expect_times(s, C, 8, 12);
}

TEST(Fig4StaticOrders, DoccsMakespan17) {
  const Instance inst = table3_instance();
  const Schedule s = run_heuristic(HeuristicId::kDOCCS, inst, kTable3Capacity);
  EXPECT_TRUE(feasible(inst, s, kTable3Capacity));
  EXPECT_DOUBLE_EQ(s.makespan(inst), 17.0);
  expect_times(s, C, 0, 4);
  expect_times(s, A, 8, 11);
  expect_times(s, B, 11, 13);
  expect_times(s, D, 12, 16);
}

// ---------------------------------------------------------------- Fig. 5

TEST(Fig5Dynamic, LcmrMakespan23) {
  const Instance inst = table4_instance();
  const Schedule s = run_heuristic(HeuristicId::kLCMR, inst, kTable4Capacity);
  EXPECT_TRUE(feasible(inst, s, kTable4Capacity));
  EXPECT_DOUBLE_EQ(s.makespan(inst), 23.0);
  expect_times(s, B, 0, 1);   // min induced idle beats the LCMR criterion
  expect_times(s, D, 1, 7);
  expect_times(s, A, 8, 11);
  expect_times(s, C, 13, 17);
}

TEST(Fig5Dynamic, ScmrMakespan25) {
  const Instance inst = table4_instance();
  const Schedule s = run_heuristic(HeuristicId::kSCMR, inst, kTable4Capacity);
  EXPECT_TRUE(feasible(inst, s, kTable4Capacity));
  EXPECT_DOUBLE_EQ(s.makespan(inst), 25.0);
  expect_times(s, B, 0, 1);
  expect_times(s, A, 1, 7);
  expect_times(s, C, 9, 13);
  expect_times(s, D, 19, 24);
}

TEST(Fig5Dynamic, MamrMakespan24) {
  const Instance inst = table4_instance();
  const Schedule s = run_heuristic(HeuristicId::kMAMR, inst, kTable4Capacity);
  EXPECT_TRUE(feasible(inst, s, kTable4Capacity));
  EXPECT_DOUBLE_EQ(s.makespan(inst), 24.0);
  expect_times(s, B, 0, 1);
  expect_times(s, C, 1, 7);
  expect_times(s, A, 13, 16);
  expect_times(s, D, 18, 23);
}

// ---------------------------------------------------------------- Fig. 6

TEST(Fig6Corrections, OolcmrMakespan33) {
  const Instance inst = table5_instance();
  const Schedule s = schedule_corrected_with_order(
      inst, table5_paper_omim_order(), DynamicCriterion::kLargestComm,
      kTable5Capacity);
  EXPECT_TRUE(feasible(inst, s, kTable5Capacity));
  EXPECT_DOUBLE_EQ(s.makespan(inst), 33.0);
  expect_times(s, B, 0, 2);
  expect_times(s, D, 2, 8);    // C (8) does not fit with B: divert to D
  expect_times(s, A, 8, 12);
  expect_times(s, E, 12, 15);
  expect_times(s, C, 17, 25);
}

TEST(Fig6Corrections, OoscmrMakespan35) {
  const Instance inst = table5_instance();
  const Schedule s = schedule_corrected_with_order(
      inst, table5_paper_omim_order(), DynamicCriterion::kSmallestComm,
      kTable5Capacity);
  EXPECT_TRUE(feasible(inst, s, kTable5Capacity));
  EXPECT_DOUBLE_EQ(s.makespan(inst), 35.0);
  expect_times(s, B, 0, 2);
  expect_times(s, E, 2, 8);
  expect_times(s, A, 5, 10);
  expect_times(s, D, 10, 15);
  expect_times(s, C, 19, 27);
}

TEST(Fig6Corrections, OomamrMakespan33) {
  const Instance inst = table5_instance();
  const Schedule s = schedule_corrected_with_order(
      inst, table5_paper_omim_order(), DynamicCriterion::kMaxAcceleration,
      kTable5Capacity);
  EXPECT_TRUE(feasible(inst, s, kTable5Capacity));
  EXPECT_DOUBLE_EQ(s.makespan(inst), 33.0);
  expect_times(s, B, 0, 2);
  expect_times(s, D, 2, 8);
  expect_times(s, E, 8, 12);
  expect_times(s, A, 12, 16);
  expect_times(s, C, 17, 25);
}

TEST(Fig6Corrections, PaperBaseOrderIsAlternativeJohnsonOptimum) {
  // Fig. 6's caption prints the OMIM order as B C D A E while Algorithm 1
  // as written yields B C D E A; both are optimal (makespan 25) — the
  // instance has a Johnson tie. Keep both facts pinned down.
  const Instance inst = table5_instance();
  EXPECT_EQ(johnson_order(inst), (std::vector<TaskId>{B, C, D, E, A}));
  const Time ms_algorithm =
      makespan_of_order(inst, johnson_order(inst), kInfiniteMem);
  const Time ms_caption =
      makespan_of_order(inst, table5_paper_omim_order(), kInfiniteMem);
  EXPECT_DOUBLE_EQ(ms_algorithm, 25.0);
  EXPECT_DOUBLE_EQ(ms_caption, 25.0);
}

// ------------------------------------------------- Fig. 3 / Proposition 1

TEST(Fig3Proposition1, PaperScheduleFig3aReaches23) {
  // Fig. 3a's schedule (common order A B D E C F) has makespan 23 under
  // our engine — tick for tick the figure's timeline.
  const Instance inst = table2_instance();
  const std::vector<TaskId> fig3a{A, B, D, E, C, F};
  const Schedule s = simulate_order(inst, fig3a, kTable2Capacity);
  EXPECT_TRUE(feasible(inst, s, kTable2Capacity));
  EXPECT_DOUBLE_EQ(s.makespan(inst), 23.0);
}

TEST(Fig3Proposition1, BestPermutationScheduleIs22Point5) {
  // Documented deviation (EXPERIMENTS.md): the paper reports 23 as the
  // optimal common-order makespan, but the order A B D F C E achieves
  // 22.5 under the paper's own memory semantics (memory released at a
  // computation-finish instant is available to a transfer starting at
  // that same instant — the semantics its Fig. 2 reduction pattern and
  // Fig. 4 DOCPS schedule require). F's transfer starts at t=8 exactly
  // when B's computation releases 4 units, leaving D(3)+F(7) = C = 10.
  // Proposition 1 itself still holds: 22 (pair) < 22.5 (permutation).
  const Instance inst = table2_instance();
  const ExhaustiveResult res = best_common_order(inst, kTable2Capacity);
  EXPECT_DOUBLE_EQ(res.makespan, 22.5);
  EXPECT_TRUE(feasible(inst, res.schedule, kTable2Capacity));
  EXPECT_TRUE(res.schedule.is_permutation_schedule());

  const std::vector<TaskId> witness{A, B, D, F, C, E};
  EXPECT_DOUBLE_EQ(makespan_of_order(inst, witness, kTable2Capacity), 22.5);
}

TEST(Fig3Proposition1, DifferentOrdersReach22) {
  const Instance inst = table2_instance();
  const PairOrderResult res = best_pair_order(inst, kTable2Capacity);
  EXPECT_DOUBLE_EQ(res.makespan, 22.0);
  EXPECT_TRUE(feasible(inst, res.schedule, kTable2Capacity));
  // The improvement requires breaking the common order.
  EXPECT_FALSE(res.schedule.is_permutation_schedule());
}

TEST(Fig3Proposition1, PaperScheduleFig3bIsFeasible) {
  // Fig. 3b's winning schedule transfers in order A B C D E F but computes
  // in order A B C E D F (E's half-unit computation slips in front of D's).
  // The semi-active co-simulation of that order pair must land on the
  // paper's makespan of 22.
  const Instance inst = table2_instance();
  Schedule rebuilt(inst.size());
  const std::vector<TaskId> comm_order{A, B, C, D, E, F};
  const std::vector<TaskId> comp_order{A, B, C, E, D, F};
  const auto ms = simulate_pair_order(inst, comm_order, comp_order,
                                      kTable2Capacity, {}, kInfiniteTime,
                                      rebuilt);
  ASSERT_TRUE(ms.has_value());
  EXPECT_DOUBLE_EQ(*ms, 22.0);
  EXPECT_TRUE(feasible(inst, rebuilt, kTable2Capacity));
}

}  // namespace
}  // namespace dts
