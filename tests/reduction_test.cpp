#include "reduction/three_partition.hpp"

#include <gtest/gtest.h>

#include "core/simulate.hpp"
#include "core/validate.hpp"
#include "exact/exhaustive.hpp"
#include "test_util.hpp"

namespace dts {
namespace {

ThreePartitionInstance solvable_m2() {
  // {2,3,4,5,6,7}: b = 27/2... not integral. Use {1,2,6,2,3,4}: total 18,
  // m=2, b=9: triplets {1,2,6} and {2,3,4}.
  return ThreePartitionInstance{{1, 2, 6, 2, 3, 4}};
}

ThreePartitionInstance unsolvable_m2() {
  // Total 18, b=9, but the two 8s cannot be in the same triplet (8+8+v>9)
  // and each would need two partners summing to 1 — impossible with all
  // values >= 1 except a single 1 available... values: {8,8,1,... } pick
  // {8, 8, 1, 1, ... } hmm; simplest verified-unsolvable: {5,5,5,1,1,1}:
  // total 18, b 9; triplets must mix 5s and 1s: 5+5+1=11, 5+1+1=7 — none
  // hits 9.
  return ThreePartitionInstance{{5, 5, 5, 1, 1, 1}};
}

TEST(ThreePartition, WellFormedChecks) {
  EXPECT_TRUE(solvable_m2().well_formed());
  EXPECT_FALSE((ThreePartitionInstance{{1, 2}}).well_formed());
  EXPECT_FALSE((ThreePartitionInstance{{1, 2, -3}}).well_formed());
  EXPECT_FALSE((ThreePartitionInstance{{1, 1, 1, 1, 1, 2}}).well_formed())
      << "total 7 not divisible by m=2";
  EXPECT_FALSE((ThreePartitionInstance{{}}).well_formed());
}

TEST(ThreePartition, BruteForceSolvesSolvable) {
  const auto solution = solve_three_partition(solvable_m2());
  ASSERT_TRUE(solution.has_value());
  ASSERT_EQ(solution->size(), 2u);
  const auto& values = solvable_m2().values;
  for (const Triplet& t : *solution) {
    EXPECT_EQ(values[t[0]] + values[t[1]] + values[t[2]], 9);
  }
}

TEST(ThreePartition, BruteForceRejectsUnsolvable) {
  EXPECT_FALSE(solve_three_partition(unsolvable_m2()).has_value());
}

TEST(Reduction, Table1Construction) {
  const ThreePartitionInstance input = solvable_m2();
  const DtReduction red = reduce_to_dt(input);
  // m=2, x=6, b=9, b'=9+36=45, C=48, L=2*48=96.
  EXPECT_EQ(red.m, 2u);
  EXPECT_EQ(red.x, 6);
  EXPECT_EQ(red.b, 9);
  EXPECT_EQ(red.b_prime, 45);
  EXPECT_DOUBLE_EQ(red.capacity, 48.0);
  EXPECT_DOUBLE_EQ(red.target, 96.0);
  ASSERT_EQ(red.instance.size(), 9u);  // 4m+1

  // K_0: comm 0, comp 3.
  EXPECT_DOUBLE_EQ(red.instance[red.k_task(0)].comm, 0.0);
  EXPECT_DOUBLE_EQ(red.instance[red.k_task(0)].comp, 3.0);
  // K_1: comm b', comp 3. K_2 (= K_m): comm b', comp 0.
  EXPECT_DOUBLE_EQ(red.instance[red.k_task(1)].comm, 45.0);
  EXPECT_DOUBLE_EQ(red.instance[red.k_task(1)].comp, 3.0);
  EXPECT_DOUBLE_EQ(red.instance[red.k_task(2)].comp, 0.0);
  // A_i: comm 1, comp a_i + 2x.
  for (std::size_t i = 0; i < input.values.size(); ++i) {
    EXPECT_DOUBLE_EQ(red.instance[red.a_task(i)].comm, 1.0);
    EXPECT_DOUBLE_EQ(red.instance[red.a_task(i)].comp,
                     static_cast<Time>(input.values[i] + 12));
  }
  // Total comm == total comp == L (the reduction's tightness property).
  const InstanceStats stats = red.instance.stats();
  EXPECT_DOUBLE_EQ(stats.sum_comm, red.target);
  EXPECT_DOUBLE_EQ(stats.sum_comp, red.target);
}

TEST(Reduction, PartitionYieldsTightSchedule) {
  const ThreePartitionInstance input = solvable_m2();
  const DtReduction red = reduce_to_dt(input);
  const auto solution = solve_three_partition(input);
  ASSERT_TRUE(solution.has_value());

  const Schedule s = schedule_from_partition(red, *solution);
  EXPECT_TRUE(testing::feasible(red.instance, s, red.capacity));
  EXPECT_DOUBLE_EQ(s.makespan(red.instance), red.target);
  // Zero idle anywhere: peak memory exactly C during the K windows.
  EXPECT_DOUBLE_EQ(peak_memory(red.instance, s), red.capacity);
}

TEST(Reduction, ScheduleRoundTripsToPartition) {
  const ThreePartitionInstance input = solvable_m2();
  const DtReduction red = reduce_to_dt(input);
  const auto solution = solve_three_partition(input);
  ASSERT_TRUE(solution.has_value());
  const Schedule s = schedule_from_partition(red, *solution);

  const auto recovered = partition_from_schedule(red, s);
  ASSERT_TRUE(recovered.has_value());
  ASSERT_EQ(recovered->size(), 2u);
  for (const Triplet& t : *recovered) {
    EXPECT_EQ(input.values[t[0]] + input.values[t[1]] + input.values[t[2]],
              input.b());
  }
}

TEST(Reduction, RejectsSlackSchedules) {
  // A feasible but non-tight schedule (makespan > L) is not a witness.
  const ThreePartitionInstance input = solvable_m2();
  const DtReduction red = reduce_to_dt(input);
  const Schedule slack = simulate_order(
      red.instance, red.instance.submission_order(), red.capacity);
  if (definitely_less(red.target, slack.makespan(red.instance))) {
    EXPECT_FALSE(partition_from_schedule(red, slack).has_value());
  }
}

TEST(Reduction, UnsolvableInstanceHasNoTightPermutationSchedule) {
  // For {5,5,5,1,1,1} no schedule of length L exists (Theorem 2). The
  // full statement covers arbitrary schedules; exhaustive search over the
  // 9!-permutation schedules (collapsed by symmetry) gives a strong
  // machine check: the best permutation schedule stays strictly above L.
  const ThreePartitionInstance input = unsolvable_m2();
  const DtReduction red = reduce_to_dt(input);
  const ExhaustiveResult best = best_common_order(red.instance, red.capacity);
  EXPECT_GT(best.makespan, red.target + 0.5);
}

TEST(Reduction, SolvableInstanceReachableByExhaustiveSearch) {
  const ThreePartitionInstance input = solvable_m2();
  const DtReduction red = reduce_to_dt(input);
  const ExhaustiveResult best = best_common_order(red.instance, red.capacity);
  EXPECT_DOUBLE_EQ(best.makespan, red.target);
  // ... and the optimal permutation schedule decodes into a partition.
  const auto recovered = partition_from_schedule(red, best.schedule);
  EXPECT_TRUE(recovered.has_value());
}

TEST(Reduction, MalformedInputThrows) {
  EXPECT_THROW((void)reduce_to_dt(ThreePartitionInstance{{1, 2}}),
               std::invalid_argument);
}

TEST(Reduction, WrongTripletCountThrows) {
  const DtReduction red = reduce_to_dt(solvable_m2());
  EXPECT_THROW((void)schedule_from_partition(red, {}), std::invalid_argument);
}

}  // namespace
}  // namespace dts
