#include "heuristics/static_orders.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/johnson.hpp"
#include "core/simulate.hpp"
#include "test_util.hpp"

namespace dts {
namespace {

bool is_permutation_of_all(const std::vector<TaskId>& order, std::size_t n) {
  if (order.size() != n) return false;
  std::vector<bool> seen(n, false);
  for (TaskId id : order) {
    if (id >= n || seen[id]) return false;
    seen[id] = true;
  }
  return true;
}

TEST(StaticOrders, SubmissionIsIdentity) {
  const Instance inst = testing::table3_instance();
  EXPECT_EQ(static_order(inst, StaticOrderPolicy::kSubmission),
            inst.submission_order());
}

TEST(StaticOrders, JohnsonPolicyMatchesJohnsonOrder) {
  const Instance inst = testing::table5_instance();
  EXPECT_EQ(static_order(inst, StaticOrderPolicy::kJohnson),
            johnson_order(inst));
}

TEST(StaticOrders, SortKeysAreMonotone) {
  Rng rng(5);
  for (int iter = 0; iter < 50; ++iter) {
    const Instance inst = testing::random_instance(rng, 10);
    const auto iocms = static_order(inst, StaticOrderPolicy::kIncreasingComm);
    EXPECT_TRUE(std::is_sorted(
        iocms.begin(), iocms.end(),
        [&](TaskId a, TaskId b) { return inst[a].comm < inst[b].comm; }));
    const auto docps = static_order(inst, StaticOrderPolicy::kDecreasingComp);
    EXPECT_TRUE(std::is_sorted(
        docps.begin(), docps.end(),
        [&](TaskId a, TaskId b) { return inst[a].comp > inst[b].comp; }));
    const auto ioccs =
        static_order(inst, StaticOrderPolicy::kIncreasingCommPlusComp);
    EXPECT_TRUE(std::is_sorted(ioccs.begin(), ioccs.end(),
                               [&](TaskId a, TaskId b) {
                                 return inst[a].total_time() <
                                        inst[b].total_time();
                               }));
    const auto doccs =
        static_order(inst, StaticOrderPolicy::kDecreasingCommPlusComp);
    EXPECT_TRUE(std::is_sorted(doccs.begin(), doccs.end(),
                               [&](TaskId a, TaskId b) {
                                 return inst[a].total_time() >
                                        inst[b].total_time();
                               }));
  }
}

TEST(StaticOrders, EveryPolicyYieldsPermutation) {
  Rng rng(6);
  const Instance inst = testing::random_instance(rng, 15);
  for (StaticOrderPolicy p :
       {StaticOrderPolicy::kSubmission, StaticOrderPolicy::kJohnson,
        StaticOrderPolicy::kIncreasingComm, StaticOrderPolicy::kDecreasingComp,
        StaticOrderPolicy::kIncreasingCommPlusComp,
        StaticOrderPolicy::kDecreasingCommPlusComp}) {
    EXPECT_TRUE(is_permutation_of_all(static_order(inst, p), inst.size()));
  }
}

TEST(StaticOrders, SchedulesFeasibleUnderCapacity) {
  Rng rng(7);
  for (int iter = 0; iter < 50; ++iter) {
    const Instance inst = testing::random_instance(rng, 10);
    const Mem capacity = testing::random_capacity(rng, inst);
    for (StaticOrderPolicy p :
         {StaticOrderPolicy::kJohnson, StaticOrderPolicy::kIncreasingComm,
          StaticOrderPolicy::kDecreasingComp,
          StaticOrderPolicy::kIncreasingCommPlusComp,
          StaticOrderPolicy::kDecreasingCommPlusComp}) {
      const Schedule s = simulate_order(inst, static_order(inst, p), capacity);
      EXPECT_TRUE(testing::feasible(inst, s, capacity));
    }
  }
}

TEST(StaticOrders, Acronyms) {
  EXPECT_EQ(to_acronym(StaticOrderPolicy::kSubmission), "OS");
  EXPECT_EQ(to_acronym(StaticOrderPolicy::kJohnson), "OOSIM");
  EXPECT_EQ(to_acronym(StaticOrderPolicy::kIncreasingComm), "IOCMS");
  EXPECT_EQ(to_acronym(StaticOrderPolicy::kDecreasingComp), "DOCPS");
  EXPECT_EQ(to_acronym(StaticOrderPolicy::kIncreasingCommPlusComp), "IOCCS");
  EXPECT_EQ(to_acronym(StaticOrderPolicy::kDecreasingCommPlusComp), "DOCCS");
}

TEST(StaticOrders, StableTieBreaking) {
  // Identical tasks: every order policy must preserve submission order.
  const Instance inst = Instance::from_comm_comp({{2, 3}, {2, 3}, {2, 3}});
  for (StaticOrderPolicy p :
       {StaticOrderPolicy::kIncreasingComm, StaticOrderPolicy::kDecreasingComp,
        StaticOrderPolicy::kIncreasingCommPlusComp,
        StaticOrderPolicy::kDecreasingCommPlusComp}) {
    EXPECT_EQ(static_order(inst, p), (std::vector<TaskId>{0, 1, 2}));
  }
}

}  // namespace
}  // namespace dts
