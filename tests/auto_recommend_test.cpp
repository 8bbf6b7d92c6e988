#include <gtest/gtest.h>

#include "core/johnson.hpp"
#include "core/recommend.hpp"
#include "core/registry.hpp"
#include "core/validate.hpp"
#include "test_util.hpp"

namespace dts {
namespace {

TEST(AutoScheduler, PicksTheBestCandidate) {
  Rng rng(81);
  for (int iter = 0; iter < 30; ++iter) {
    const Instance inst = testing::random_instance(rng, 12);
    const Mem capacity = testing::random_capacity(rng, inst);
    const AutoScheduleResult res = auto_schedule(inst, capacity);
    ASSERT_EQ(res.outcomes.size(), all_heuristics().size());
    for (const HeuristicOutcome& o : res.outcomes) {
      EXPECT_LE(res.makespan, o.makespan + 1e-9)
          << name_of(res.best) << " vs " << name_of(o.id);
    }
    EXPECT_TRUE(testing::feasible(inst, res.schedule, capacity));
    EXPECT_GE(res.makespan / omim(inst), 1.0 - 1e-9);
  }
}

TEST(AutoScheduler, RestrictedCandidateSet) {
  const Instance inst = testing::table3_instance();
  const std::vector<HeuristicId> only{HeuristicId::kDOCPS};
  const AutoScheduleResult res =
      auto_schedule(inst, testing::kTable3Capacity, only);
  EXPECT_EQ(res.best, HeuristicId::kDOCPS);
  EXPECT_DOUBLE_EQ(res.makespan, 14.0);  // Fig. 4 value
}

TEST(AutoScheduler, TieGoesToEarlierCandidate) {
  // With unconstrained memory, OOSIM and the corrections variants all
  // produce the Johnson makespan; the first listed candidate must win.
  const Instance inst = testing::table3_instance();
  const std::vector<HeuristicId> candidates{
      HeuristicId::kOOSIM, HeuristicId::kOOLCMR, HeuristicId::kOOSCMR};
  const AutoScheduleResult res = auto_schedule(inst, kInfiniteMem, candidates);
  EXPECT_EQ(res.best, HeuristicId::kOOSIM);
}

TEST(AutoScheduler, EmptyInstance) {
  const AutoScheduleResult res = auto_schedule(Instance{}, 1.0);
  EXPECT_DOUBLE_EQ(res.makespan, 0.0);
  ASSERT_EQ(res.outcomes.size(), all_heuristics().size());
  for (const HeuristicOutcome& o : res.outcomes) {
    EXPECT_DOUBLE_EQ(o.makespan, 0.0) << name_of(o.id);
  }
}

TEST(Recommend, UnconstrainedCapacityFavorsJohnson) {
  const Instance inst = testing::table3_instance();
  const Mem generous = peak_memory(inst, johnson_schedule(inst));
  const Recommendation rec = recommend(inst, generous);
  EXPECT_EQ(rec.regime, CapacityRegime::kUnconstrained);
  EXPECT_EQ(rec.primary, HeuristicId::kOOSIM);
}

TEST(Recommend, RegimeClassification) {
  const Instance inst = testing::table3_instance();  // mc = 4
  // Johnson schedule (B C A D, no cap): C, A and D all hold memory in
  // [8, 9), so the unconstrained peak is 4 + 3 + 2 = 9.
  EXPECT_DOUBLE_EQ(peak_memory(inst, johnson_schedule(inst)), 9.0);
  EXPECT_EQ(classify_capacity(inst, 9.0), CapacityRegime::kUnconstrained);
  EXPECT_EQ(classify_capacity(inst, 6.5), CapacityRegime::kModerate);
  EXPECT_EQ(classify_capacity(inst, 4.5), CapacityRegime::kLimited);
}

TEST(Recommend, LimitedCapacitySmallCommComputeTasksFavorScmr) {
  // HF's shape: compute-intensive tasks have small comm times.
  std::vector<Task> tasks;
  for (int i = 0; i < 12; ++i) {
    tasks.push_back(Task{.id = 0, .comm = 8, .comp = 1, .mem = 8, .name = {}});
  }
  for (int i = 0; i < 4; ++i) {
    tasks.push_back(Task{.id = 0, .comm = 1, .comp = 4, .mem = 1, .name = {}});
  }
  const Instance inst{std::move(tasks)};
  const Recommendation rec = recommend(inst, inst.min_capacity() * 1.1);
  EXPECT_EQ(rec.regime, CapacityRegime::kLimited);
  EXPECT_EQ(rec.primary, HeuristicId::kSCMR);
}

TEST(Recommend, LimitedCapacityLargeCommComputeTasksFavorLcmr) {
  std::vector<Task> tasks;
  for (int i = 0; i < 12; ++i) {
    tasks.push_back(Task{.id = 0, .comm = 1, .comp = 0.1, .mem = 1, .name = {}});
  }
  for (int i = 0; i < 4; ++i) {
    tasks.push_back(Task{.id = 0, .comm = 8, .comp = 10, .mem = 8, .name = {}});
  }
  const Instance inst{std::move(tasks)};
  const Recommendation rec = recommend(inst, inst.min_capacity() * 1.1);
  EXPECT_EQ(rec.regime, CapacityRegime::kLimited);
  EXPECT_EQ(rec.primary, HeuristicId::kLCMR);
}

TEST(Recommend, MixedWorkloadsFavorAccelerationVariants) {
  std::vector<Task> tasks;
  for (int i = 0; i < 8; ++i) {
    tasks.push_back(Task{.id = 0, .comm = 5, .comp = 1, .mem = 5, .name = {}});
    tasks.push_back(Task{.id = 0, .comm = 2, .comp = 6, .mem = 2, .name = {}});
  }
  const Instance inst{std::move(tasks)};
  const Recommendation limited = recommend(inst, inst.min_capacity() * 1.05);
  EXPECT_EQ(limited.primary, HeuristicId::kMAMR);
  // Moderate capacity: corrected variant.
  const Mem peak = peak_memory(inst, johnson_schedule(inst));
  if (inst.min_capacity() * 1.8 < peak) {
    const Recommendation moderate = recommend(inst, inst.min_capacity() * 1.8);
    EXPECT_EQ(moderate.regime, CapacityRegime::kModerate);
    EXPECT_EQ(moderate.primary, HeuristicId::kOOMAMR);
  }
}

TEST(Recommend, RationaleIsNonEmpty) {
  const Instance inst = testing::table4_instance();
  for (double f : {1.0, 1.6, 10.0}) {
    EXPECT_FALSE(recommend(inst, inst.min_capacity() * f).rationale.empty());
  }
}

TEST(Recommend, RegimeToString) {
  EXPECT_EQ(to_string(CapacityRegime::kUnconstrained), "unconstrained");
  EXPECT_EQ(to_string(CapacityRegime::kModerate), "moderate");
  EXPECT_EQ(to_string(CapacityRegime::kLimited), "limited");
}

}  // namespace
}  // namespace dts
