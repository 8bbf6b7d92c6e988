#include "heuristics/gilmore_gomory.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/registry.hpp"
#include "test_util.hpp"

namespace dts {
namespace {

/// Brute-force optimal no-wait makespan (n <= 8).
Time brute_force_no_wait(const Instance& inst) {
  std::vector<TaskId> order = inst.submission_order();
  std::sort(order.begin(), order.end());
  Time best = kInfiniteTime;
  do {
    best = std::min(best, no_wait_makespan(inst, order));
  } while (std::next_permutation(order.begin(), order.end()));
  return best;
}

TEST(NoWaitMakespan, MatchesHandComputation) {
  // Jobs (comm, comp): (2,3) then (4,1): second transfer waits
  // max(0, 3-4)=0 after the first, so start2 = 2, end = 2+4+1 = 7.
  const Instance inst = Instance::from_comm_comp({{2, 3}, {4, 1}});
  const std::vector<TaskId> order{0, 1};
  EXPECT_DOUBLE_EQ(no_wait_makespan(inst, order), 7.0);
  // Reversed: (4,1) then (2,3): gap max(0, 1-2)=0, end = 4+2+3 = 9.
  const std::vector<TaskId> rev{1, 0};
  EXPECT_DOUBLE_EQ(no_wait_makespan(inst, rev), 9.0);
}

TEST(NoWaitMakespan, GapInsertedWhenNextTransferIsShort) {
  // (1, 10) then (2, 1): transfer 2 must wait so its computation starts
  // exactly when the first ends: start2 = 1 + max(0, 10-2) = 9; end = 12.
  const Instance inst = Instance::from_comm_comp({{1, 10}, {2, 1}});
  const std::vector<TaskId> order{0, 1};
  EXPECT_DOUBLE_EQ(no_wait_makespan(inst, order), 12.0);
}

TEST(NoWaitMakespan, EmptyAndSingle) {
  const Instance empty;
  EXPECT_DOUBLE_EQ(no_wait_makespan(empty, {}), 0.0);
  const Instance one = Instance::from_comm_comp({{3, 4}});
  const std::vector<TaskId> order{0};
  EXPECT_DOUBLE_EQ(no_wait_makespan(one, order), 7.0);
}

TEST(GilmoreGomory, TrivialInstances) {
  const Instance empty;
  EXPECT_TRUE(gilmore_gomory_order(empty).empty());
  const Instance one = Instance::from_comm_comp({{3, 4}});
  EXPECT_EQ(gilmore_gomory_order(one), (std::vector<TaskId>{0}));
}

TEST(GilmoreGomory, ProducesPermutation) {
  Rng rng(33);
  for (int iter = 0; iter < 50; ++iter) {
    const std::size_t n = 1 + rng.index(12);
    const Instance inst = testing::random_instance(rng, n);
    std::vector<TaskId> order = gilmore_gomory_order(inst);
    std::sort(order.begin(), order.end());
    EXPECT_EQ(order, inst.submission_order());
  }
}

TEST(GilmoreGomory, OptimalOnRandomInstances) {
  // The core exactness property: the GG sequence minimizes the no-wait
  // makespan. Cross-checked against brute force on hundreds of instances
  // (with duplicates, zeros and integer ties).
  Rng rng(34);
  for (int iter = 0; iter < 400; ++iter) {
    const std::size_t n = 2 + rng.index(6);  // up to 7 jobs
    const Instance inst = testing::random_instance(rng, n);
    const std::vector<TaskId> gg = gilmore_gomory_order(inst);
    const Time gg_ms = no_wait_makespan(inst, gg);
    const Time best = brute_force_no_wait(inst);
    EXPECT_NEAR(gg_ms, best, 1e-9) << "GG suboptimal at iteration " << iter
                                   << " (n=" << n << ")";
  }
}

TEST(GilmoreGomory, OptimalOnIntegerInstances) {
  // Integer durations produce many ties — the regime where the patching
  // step's cycle structure is most intricate.
  Rng rng(35);
  for (int iter = 0; iter < 400; ++iter) {
    const std::size_t n = 2 + rng.index(6);
    std::vector<Task> tasks;
    for (std::size_t i = 0; i < n; ++i) {
      const Time comm = static_cast<Time>(rng.uniform_u64(0, 4));
      const Time comp = static_cast<Time>(rng.uniform_u64(0, 4));
      tasks.push_back(
          Task{.id = 0, .comm = comm, .comp = comp, .mem = comm, .name = {}});
    }
    const Instance inst(std::move(tasks));
    const Time gg_ms = no_wait_makespan(inst, gilmore_gomory_order(inst));
    EXPECT_NEAR(gg_ms, brute_force_no_wait(inst), 1e-9)
        << "GG suboptimal at iteration " << iter;
  }
}

TEST(GilmoreGomory, ScheduleFeasibleUnderCapacity) {
  Rng rng(36);
  for (int iter = 0; iter < 50; ++iter) {
    const Instance inst = testing::random_instance(rng, 10);
    const Mem capacity = testing::random_capacity(rng, inst);
    const Schedule s = run_heuristic(HeuristicId::kGG, inst, capacity);
    EXPECT_TRUE(testing::feasible(inst, s, capacity));
  }
}

TEST(GilmoreGomory, HandlesLargeInstancesQuickly) {
  Rng rng(37);
  const Instance inst = testing::random_instance(rng, 2000);
  const std::vector<TaskId> order = gilmore_gomory_order(inst);
  EXPECT_EQ(order.size(), 2000u);
}

}  // namespace
}  // namespace dts
