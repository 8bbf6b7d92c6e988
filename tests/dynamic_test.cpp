#include "heuristics/dynamic.hpp"

#include <gtest/gtest.h>

#include "core/bounds.hpp"
#include "core/johnson.hpp"
#include "core/registry.hpp"
#include "test_util.hpp"

namespace dts {
namespace {

TEST(PickCandidate, EmptyReturnsInvalid) {
  const Instance inst = testing::table4_instance();
  const CompiledInstance ci(inst);
  Engine state(ci, kInfiniteMem);
  const std::vector<TaskId> none;
  EXPECT_EQ(pick_candidate(ci, state, none, DynamicCriterion::kLargestComm),
            kInvalidTask);
}

TEST(PickCandidate, MinimumIdleDominatesCriterion) {
  // At time zero with an idle processor, every candidate induces idle equal
  // to its communication time, so the smallest comm wins regardless of the
  // criterion (the paper's Fig. 5 schedules all start with task B).
  const Instance inst = testing::table4_instance();
  const CompiledInstance ci(inst);
  Engine state(ci, kInfiniteMem);
  const std::vector<TaskId> all{0, 1, 2, 3};
  for (DynamicCriterion c :
       {DynamicCriterion::kLargestComm, DynamicCriterion::kSmallestComm,
        DynamicCriterion::kMaxAcceleration}) {
    EXPECT_EQ(pick_candidate(ci, state, all, c), 1u);  // B has comm 1
  }
}

TEST(PickCandidate, CriterionBreaksIdleTies) {
  // Busy processor: nobody induces idle, criterion decides.
  const Instance inst = testing::table4_instance();
  const CompiledInstance ci(inst);
  Engine state(ci, kInfiniteMem);
  state.start(1);  // B: processor busy until t=7
  const std::vector<TaskId> rest{0, 2, 3};  // A(3,2) C(4,6) D(5,1)
  EXPECT_EQ(pick_candidate(ci, state, rest, DynamicCriterion::kLargestComm),
            3u);
  EXPECT_EQ(pick_candidate(ci, state, rest, DynamicCriterion::kSmallestComm),
            0u);
  EXPECT_EQ(
      pick_candidate(ci, state, rest, DynamicCriterion::kMaxAcceleration),
      2u);  // C: 6/4 beats A: 2/3 and D: 1/5
}

TEST(PickCandidate, ZeroCommTaskIsInfinitelyAccelerated) {
  const Instance inst = Instance::from_comm_comp({{0, 4}, {2, 10}});
  const CompiledInstance ci(inst);
  Engine state(ci, kInfiniteMem);
  state.start(1);  // keep processor busy so idle ties
  const std::vector<TaskId> both{0, 1};
  EXPECT_EQ(
      pick_candidate(ci, state, both, DynamicCriterion::kMaxAcceleration),
      0u);
}

TEST(PickCandidate, TieOnCriterionPrefersEarlierCandidate) {
  const Instance inst = Instance::from_comm_comp({{2, 2}, {2, 2}});
  const CompiledInstance ci(inst);
  Engine state(ci, kInfiniteMem);
  state.start(0);
  // Re-pick among identical tasks (pretend both still pending).
  const std::vector<TaskId> both{1, 0};
  EXPECT_EQ(pick_candidate(ci, state, both, DynamicCriterion::kLargestComm),
            1u)
      << "first listed candidate wins ties";
}

TEST(ScheduleDynamic, FeasibleAndWithinBounds) {
  Rng rng(15);
  for (int iter = 0; iter < 100; ++iter) {
    const Instance inst = testing::random_instance(rng, 12);
    const Mem capacity = testing::random_capacity(rng, inst);
    for (HeuristicId id : heuristics_in(HeuristicCategory::kDynamic)) {
      const Schedule s = run_heuristic(id, inst, capacity);
      EXPECT_TRUE(testing::feasible(inst, s, capacity));
      const Bounds b = compute_bounds(inst);
      EXPECT_GE(s.makespan(inst) + 1e-9, b.omim_lower);
      EXPECT_LE(s.makespan(inst), b.sequential_upper + 1e-9);
    }
  }
}

TEST(ScheduleDynamic, ProducesPermutationSchedules) {
  Rng rng(16);
  const Instance inst = testing::random_instance(rng, 10);
  const Schedule s =
      run_heuristic(HeuristicId::kLCMR, inst, inst.min_capacity() * 1.5);
  EXPECT_TRUE(s.is_permutation_schedule());
}

TEST(ScheduleDynamic, ThrowsWhenTaskExceedsCapacity) {
  const Instance inst = Instance::from_comm_comp({{5, 1}});
  EXPECT_THROW((void)run_heuristic(HeuristicId::kLCMR, inst, 4.0),
      std::invalid_argument);
}

TEST(ScheduleDynamic, InfiniteCapacityOptimalWhenAllComputeIntensive) {
  // With ample memory and an idle processor at t=0, the dynamic rule
  // reduces to "least idle first": feasibility only. Just pin behaviour:
  // makespan must be within the bounds and >= OMIM.
  const Instance inst =
      Instance::from_comm_comp({{1, 4}, {2, 5}, {3, 6}, {4, 7}});
  const Schedule s = run_heuristic(HeuristicId::kSCMR, inst, kInfiniteMem);
  EXPECT_DOUBLE_EQ(s.makespan(inst), omim(inst))
      << "SCMR equals Johnson when all tasks are compute intensive and "
         "memory is unbounded";
}

TEST(ScheduleDynamic, EmptyInstance) {
  const Instance inst;
  const Schedule s = run_heuristic(HeuristicId::kLCMR, inst, 1.0);
  EXPECT_EQ(s.size(), 0u);
}

TEST(Acronyms, DynamicNames) {
  EXPECT_EQ(to_acronym(DynamicCriterion::kLargestComm), "LCMR");
  EXPECT_EQ(to_acronym(DynamicCriterion::kSmallestComm), "SCMR");
  EXPECT_EQ(to_acronym(DynamicCriterion::kMaxAcceleration), "MAMR");
}

}  // namespace
}  // namespace dts
