#include <gtest/gtest.h>

#include <algorithm>

#include "core/johnson.hpp"
#include "core/simulate.hpp"
#include "exact/branch_bound.hpp"
#include "exact/exhaustive.hpp"
#include "test_util.hpp"

namespace dts {
namespace {

TEST(Exhaustive, MatchesJohnsonWithInfiniteMemory) {
  Rng rng(51);
  for (int iter = 0; iter < 100; ++iter) {
    const Instance inst = testing::random_instance(rng, 6);
    const ExhaustiveResult res = best_common_order(inst, kInfiniteMem);
    EXPECT_NEAR(res.makespan, omim(inst), 1e-9);
  }
}

TEST(Exhaustive, CollapsesIdenticalTasks) {
  // Five identical tasks: only one distinct permutation.
  const Instance inst =
      Instance::from_comm_comp({{2, 3}, {2, 3}, {2, 3}, {2, 3}, {2, 3}});
  const ExhaustiveResult res = best_common_order(inst, 4.0);
  EXPECT_EQ(res.permutations_tried, 1u);
}

TEST(Exhaustive, RefusesOversizedInstances) {
  Rng rng(52);
  const Instance inst = testing::random_instance(rng, 12);
  EXPECT_THROW((void)best_common_order(inst, kInfiniteMem),
               std::invalid_argument);
}

TEST(Exhaustive, EmptyInstance) {
  const ExhaustiveResult res = best_common_order(Instance{}, 1.0);
  EXPECT_DOUBLE_EQ(res.makespan, 0.0);
}

TEST(Exhaustive, NeverWorseThanAnyHeuristicOrder) {
  Rng rng(53);
  for (int iter = 0; iter < 60; ++iter) {
    const Instance inst = testing::random_instance(rng, 7);
    const Mem capacity = testing::random_capacity(rng, inst);
    const ExhaustiveResult res = best_common_order(inst, capacity);
    EXPECT_TRUE(testing::feasible(inst, res.schedule, capacity));
    const Time johnson = makespan_of_order(inst, johnson_order(inst), capacity);
    EXPECT_LE(res.makespan, johnson + 1e-9);
    EXPECT_GE(res.makespan + 1e-9, omim(inst));
  }
}

TEST(PairSimulator, IdenticalOrdersMatchCommonOrderEngine) {
  // simulate_pair_order(o, o) must agree exactly with simulate_order(o):
  // both implement earliest-start permutation semantics.
  Rng rng(54);
  for (int iter = 0; iter < 200; ++iter) {
    const Instance inst = testing::random_instance(rng, 9);
    const Mem capacity = testing::random_capacity(rng, inst);
    std::vector<TaskId> order = inst.submission_order();
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.index(i)]);
    }
    const Schedule common = simulate_order(inst, order, capacity);
    Schedule paired(inst.size());
    const auto ms = simulate_pair_order(inst, order, order, capacity, {},
                                        kInfiniteTime, paired);
    ASSERT_TRUE(ms.has_value());
    EXPECT_NEAR(*ms, common.makespan(inst), 1e-9);
    for (TaskId i = 0; i < inst.size(); ++i) {
      EXPECT_NEAR(paired[i].comm_start, common[i].comm_start, 1e-9);
      EXPECT_NEAR(paired[i].comp_start, common[i].comp_start, 1e-9);
    }
  }
}

TEST(PairSimulator, DetectsDeadlock) {
  // Comm order wants task 1 second, but comp order computes task 1 first;
  // task 0 (mem 6) blocks task 1 (mem 5) under capacity 10 forever since
  // task 0's computation is ordered after task 1's.
  const Instance inst = Instance::from_comm_comp({{6, 1}, {5, 1}});
  const std::vector<TaskId> comm_order{0, 1};
  const std::vector<TaskId> comp_order{1, 0};
  Schedule out(inst.size());
  const auto ms = simulate_pair_order(inst, comm_order, comp_order, 10.0, {},
                                      kInfiniteTime, out);
  EXPECT_FALSE(ms.has_value());
}

TEST(PairOrder, NeverWorseThanCommonOrder) {
  Rng rng(55);
  for (int iter = 0; iter < 40; ++iter) {
    const Instance inst = testing::random_instance(rng, 5);
    const Mem capacity = testing::random_capacity(rng, inst, 2.0);
    const ExhaustiveResult common = best_common_order(inst, capacity);
    const PairOrderResult pair = best_pair_order(inst, capacity);
    EXPECT_LE(pair.makespan, common.makespan + 1e-9);
    EXPECT_GE(pair.makespan + 1e-9, omim(inst));
    EXPECT_TRUE(testing::feasible(inst, pair.schedule, capacity));
  }
}

TEST(PairOrder, InfiniteMemoryEqualsJohnson) {
  // Without the memory constraint, permutation schedules are dominant
  // (Theorem 1), so pair orders cannot beat Johnson.
  Rng rng(56);
  for (int iter = 0; iter < 30; ++iter) {
    const Instance inst = testing::random_instance(rng, 5);
    const PairOrderResult pair = best_pair_order(inst, kInfiniteMem);
    EXPECT_NEAR(pair.makespan, omim(inst), 1e-9);
  }
}

TEST(PairOrder, UpperBoundPrunesEverything) {
  const Instance inst = testing::table2_instance();
  PairOrderOptions options;
  options.upper_bound = 21.0;  // below the optimum of 22
  const PairOrderResult res =
      best_pair_order(inst, testing::kTable2Capacity, options);
  EXPECT_DOUBLE_EQ(res.makespan, 21.0);  // unchanged: nothing found
  EXPECT_TRUE(res.comm_order.empty());
}

TEST(PairOrder, RefusesOversizedInstances) {
  Rng rng(57);
  const Instance inst = testing::random_instance(rng, 9);
  EXPECT_THROW((void)best_pair_order(inst, kInfiniteMem),
               std::invalid_argument);
}

TEST(PairOrder, ThrowsWhenTaskExceedsCapacity) {
  const Instance inst = Instance::from_comm_comp({{5, 1}});
  EXPECT_THROW((void)best_pair_order(inst, 4.0), std::invalid_argument);
}

TEST(PairOrder, CarriedStateShiftsSchedule) {
  const Instance inst = Instance::from_comm_comp({{2, 3}, {1, 4}});
  Engine::Snapshot snap;
  snap.comm_available = {10.0};
  snap.comp_available = 12.0;
  PairOrderOptions options;
  options.initial_state = snap;
  const PairOrderResult res = best_pair_order(inst, kInfiniteMem, options);
  for (TaskId i = 0; i < inst.size(); ++i) {
    EXPECT_GE(res.schedule[i].comm_start, 10.0);
    EXPECT_GE(res.schedule[i].comp_start, 12.0);
  }
}

}  // namespace
}  // namespace dts
