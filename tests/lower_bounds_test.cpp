#include "exact/lower_bounds.hpp"

#include <gtest/gtest.h>

#include "core/johnson.hpp"
#include "core/registry.hpp"
#include "core/simulate.hpp"
#include "exact/exhaustive.hpp"
#include "test_util.hpp"

namespace dts {
namespace {

TEST(CapacityAwareBounds, EmptyInstance) {
  const CapacityAwareBounds b = capacity_aware_bounds(Instance{}, 1.0);
  EXPECT_DOUBLE_EQ(b.combined, 0.0);
  EXPECT_FALSE(b.capacity_binds());
}

TEST(CapacityAwareBounds, BigTaskSerialization) {
  // Two tasks of mem 6 under capacity 10: both exceed C/2, so their memory
  // intervals cannot overlap: makespan >= (4+3) + (4+3) = 14 > OMIM.
  const Instance inst = Instance::from_triples({{4, 3, 6}, {4, 3, 6}});
  const CapacityAwareBounds b = capacity_aware_bounds(inst, 10.0);
  EXPECT_DOUBLE_EQ(b.big_task_serial, 14.0);
  EXPECT_DOUBLE_EQ(b.combined, 14.0);
  EXPECT_TRUE(b.capacity_binds());
  // And the bound is achieved by any order.
  EXPECT_DOUBLE_EQ(
      makespan_of_order(inst, inst.submission_order(), 10.0), 14.0);
}

TEST(CapacityAwareBounds, NoBigTasksReducesToClassicBounds) {
  const Instance inst = testing::table3_instance();
  const CapacityAwareBounds b = capacity_aware_bounds(inst, 100.0);
  EXPECT_DOUBLE_EQ(b.big_task_serial, 0.0);
  EXPECT_DOUBLE_EQ(b.combined, b.omim);
  EXPECT_FALSE(b.capacity_binds());
}

TEST(CapacityAwareBounds, LinkAndHeadTerms) {
  const Instance inst = Instance::from_comm_comp({{3, 2}, {5, 1}});
  const CapacityAwareBounds b = capacity_aware_bounds(inst, 100.0);
  EXPECT_DOUBLE_EQ(b.link_plus_tail, 8.0 + 1.0);
  EXPECT_DOUBLE_EQ(b.head_plus_comp, 3.0 + 3.0);
}

TEST(CapacityAwareBounds, NeverExceedsExactOptimum) {
  Rng rng(501);
  for (int iter = 0; iter < 120; ++iter) {
    const Instance inst = testing::random_instance(rng, 6);
    const Mem capacity = testing::random_capacity(rng, inst, 2.5);
    const CapacityAwareBounds b = capacity_aware_bounds(inst, capacity);
    const ExhaustiveResult exact = best_common_order(inst, capacity);
    EXPECT_LE(b.combined, exact.makespan + 1e-9)
        << "bound must stay below the optimal permutation makespan";
    EXPECT_GE(b.combined + 1e-9, b.omim);
  }
}

TEST(CapacityAwareBounds, TightensRatiosOnBigTaskWorkloads) {
  // CCSD-like: a few giant tasks under a tight capacity. The combined
  // bound must strictly improve over OMIM.
  Rng rng(502);
  std::vector<Task> tasks;
  for (int i = 0; i < 4; ++i) {
    tasks.push_back(Task{.id = 0, .comm = rng.uniform(5, 9),
                         .comp = rng.uniform(1, 3), .mem = 10.0, .name = {}});
  }
  for (int i = 0; i < 8; ++i) {
    const Time comm = rng.uniform(0.2, 1.0);
    tasks.push_back(Task{.id = 0, .comm = comm, .comp = rng.uniform(0.2, 1.0),
                         .mem = comm, .name = {}});
  }
  const Instance inst{std::move(tasks)};
  const CapacityAwareBounds b = capacity_aware_bounds(inst, 12.0);
  EXPECT_GT(b.big_task_serial, 0.0);
  EXPECT_TRUE(b.capacity_binds());
  // Every heuristic respects the bound.
  for (HeuristicId id : all_heuristic_ids()) {
    EXPECT_GE(heuristic_makespan(id, inst, 12.0) + 1e-9, b.combined)
        << name_of(id);
  }
}

}  // namespace
}  // namespace dts
