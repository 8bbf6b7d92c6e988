#include "heuristics/corrections.hpp"

#include <gtest/gtest.h>

#include "core/bounds.hpp"
#include "core/johnson.hpp"
#include "core/registry.hpp"
#include "core/simulate.hpp"
#include "heuristics/static_orders.hpp"
#include "test_util.hpp"

namespace dts {
namespace {

TEST(Corrections, FollowsBaseOrderWhenMemoryIsAmple) {
  // With unbounded memory no correction ever fires: the schedule equals
  // the plain static execution of the base order.
  Rng rng(21);
  for (int iter = 0; iter < 50; ++iter) {
    const Instance inst = testing::random_instance(rng, 10);
    const std::vector<TaskId> base = johnson_order(inst);
    const Schedule corrected = schedule_corrected_with_order(
        inst, base, DynamicCriterion::kLargestComm, kInfiniteMem);
    const Schedule plain = simulate_order(inst, base, kInfiniteMem);
    for (TaskId i = 0; i < inst.size(); ++i) {
      EXPECT_DOUBLE_EQ(corrected[i].comm_start, plain[i].comm_start);
      EXPECT_DOUBLE_EQ(corrected[i].comp_start, plain[i].comp_start);
    }
  }
}

TEST(Corrections, DivertsOnlyWhenHeadDoesNotFit) {
  // Head C (mem 8) is blocked at t=2 by B (mem 2) under capacity 9;
  // the correction must pick a *fitting* task, never C.
  const Instance inst = testing::table5_instance();
  const Schedule s = schedule_corrected_with_order(
      inst, testing::table5_paper_omim_order(),
      DynamicCriterion::kLargestComm, testing::kTable5Capacity);
  // C's transfer cannot coexist with anything else (8 + x > 9 for x >= 2).
  const Time c_start = s[2].comm_start;
  EXPECT_GE(c_start, 17.0) << "C waits for every other footprint to clear";
}

TEST(Corrections, FeasibleAndBounded) {
  Rng rng(22);
  for (int iter = 0; iter < 100; ++iter) {
    const Instance inst = testing::random_instance(rng, 12);
    const Mem capacity = testing::random_capacity(rng, inst);
    for (HeuristicId id : heuristics_in(HeuristicCategory::kCorrected)) {
      const Schedule s = run_heuristic(id, inst, capacity);
      EXPECT_TRUE(testing::feasible(inst, s, capacity));
      const Bounds b = compute_bounds(inst);
      EXPECT_GE(s.makespan(inst) + 1e-9, b.omim_lower);
      EXPECT_LE(s.makespan(inst), b.sequential_upper + 1e-9);
    }
  }
}

TEST(Corrections, EqualsOosimWhenNoCorrectionNeeded) {
  // Capacity large enough that the Johnson order never blocks: all three
  // corrected heuristics must coincide with OOSIM.
  Rng rng(23);
  for (int iter = 0; iter < 30; ++iter) {
    const Instance inst = testing::random_instance(rng, 8);
    const InstanceStats stats = inst.stats();
    const Mem capacity = stats.total_mem;  // everything fits at once
    const Time oosim = makespan_of_order(inst, johnson_order(inst), capacity);
    for (HeuristicId id : heuristics_in(HeuristicCategory::kCorrected)) {
      EXPECT_DOUBLE_EQ(run_heuristic(id, inst, capacity).makespan(inst),
                       oosim);
    }
  }
}

TEST(Corrections, BaseOrderSizeMismatchThrows) {
  const Instance inst = testing::table5_instance();
  const std::vector<TaskId> short_order{0, 1};
  EXPECT_THROW((void)schedule_corrected_with_order(
                   inst, short_order, DynamicCriterion::kLargestComm, 9.0),
               std::invalid_argument);
}

TEST(Corrections, ThrowsWhenTaskExceedsCapacity) {
  const Instance inst = Instance::from_comm_comp({{5, 1}, {1, 1}});
  EXPECT_THROW((void)run_heuristic(HeuristicId::kOOLCMR, inst, 4.0),
               std::invalid_argument);
}

TEST(Corrections, Acronyms) {
  EXPECT_EQ(to_corrected_acronym(DynamicCriterion::kLargestComm), "OOLCMR");
  EXPECT_EQ(to_corrected_acronym(DynamicCriterion::kSmallestComm), "OOSCMR");
  EXPECT_EQ(to_corrected_acronym(DynamicCriterion::kMaxAcceleration),
            "OOMAMR");
}

TEST(Corrections, HeadRegainsPriorityAfterIdle) {
  // When nothing fits, the engine idles to the next release and the head
  // of the order gets first refusal again (not the dynamic criterion).
  const Instance inst = Instance::from_comm_comp({
      {6, 10},  // 0: big head task
      {5, 1},   // 1: would be the LCMR favourite
      {1, 1},   // 2: small
  });
  // Capacity 6: after task 0 starts, nothing else fits until its comp ends.
  const std::vector<TaskId> base{0, 1, 2};
  const Schedule s = schedule_corrected_with_order(
      inst, base, DynamicCriterion::kLargestComm, 6.0);
  EXPECT_TRUE(testing::feasible(inst, s, 6.0));
  // Task 1 fits only after task 0 releases at t=16; head order kept.
  EXPECT_DOUBLE_EQ(s[1].comm_start, 16.0);
  EXPECT_DOUBLE_EQ(s[2].comm_start, 21.0);
}

}  // namespace
}  // namespace dts
