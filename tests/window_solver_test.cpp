#include "exact/window_solver.hpp"

#include <gtest/gtest.h>

#include "core/bounds.hpp"
#include "core/johnson.hpp"
#include "core/simulate.hpp"
#include "core/validate.hpp"
#include "exact/exhaustive.hpp"
#include "test_util.hpp"

namespace dts {
namespace {

TEST(WindowSolver, Names) {
  EXPECT_EQ(window_heuristic_name({.window = 3, .mode = WindowMode::kCommonOrder}),
            "lp.3");
  EXPECT_EQ(window_heuristic_name({.window = 6, .mode = WindowMode::kPairOrder}),
            "lp.6p");
}

TEST(WindowSolver, RejectsBadWindowSizes) {
  const Instance inst = testing::table3_instance();
  EXPECT_THROW((void)schedule_windowed(inst, 6.0, {.window = 0}),
               std::invalid_argument);
  EXPECT_THROW((void)schedule_windowed(inst, 6.0, {.window = 9}),
               std::invalid_argument);
}

TEST(WindowSolver, WindowCoveringWholeInstanceIsExact) {
  Rng rng(61);
  for (int iter = 0; iter < 40; ++iter) {
    const Instance inst = testing::random_instance(rng, 5);
    const Mem capacity = testing::random_capacity(rng, inst);
    const Schedule windowed =
        schedule_windowed(inst, capacity, {.window = 5});
    const ExhaustiveResult exact = best_common_order(inst, capacity);
    EXPECT_NEAR(windowed.makespan(inst), exact.makespan, 1e-9);
  }
}

TEST(WindowSolver, FeasibleForAllSizesAndModes) {
  Rng rng(62);
  for (int iter = 0; iter < 20; ++iter) {
    const Instance inst = testing::random_instance(rng, 13);
    const Mem capacity = testing::random_capacity(rng, inst);
    for (std::size_t k : {1u, 3u, 4u, 6u}) {
      const Schedule s = schedule_windowed(
          inst, capacity, {.window = k, .mode = WindowMode::kCommonOrder});
      ASSERT_TRUE(testing::feasible(inst, s, capacity)) << "lp." << k;
      EXPECT_GE(s.makespan(inst) + 1e-9, omim(inst));
    }
    for (std::size_t k : {3u, 4u}) {
      const Schedule s = schedule_windowed(
          inst, capacity, {.window = k, .mode = WindowMode::kPairOrder});
      ASSERT_TRUE(testing::feasible(inst, s, capacity)) << "lp." << k << "p";
    }
  }
}

TEST(WindowSolver, WindowOneEqualsSubmissionOrder) {
  // Singleton windows leave no ordering freedom: lp.1 == OS.
  Rng rng(63);
  const Instance inst = testing::random_instance(rng, 10);
  const Mem capacity = testing::random_capacity(rng, inst);
  const Schedule lp1 = schedule_windowed(inst, capacity, {.window = 1});
  const Schedule os =
      simulate_order(inst, inst.submission_order(), capacity);
  for (TaskId i = 0; i < inst.size(); ++i) {
    EXPECT_DOUBLE_EQ(lp1[i].comm_start, os[i].comm_start);
    EXPECT_DOUBLE_EQ(lp1[i].comp_start, os[i].comp_start);
  }
}

TEST(WindowSolver, PairModeNeverWorseThanCommonModePerWindow) {
  // Same windows, strictly larger per-window search space. (Greedy window
  // composition does not guarantee global dominance, but on the first
  // window it holds by construction; we check the whole-instance case
  // where there is exactly one window.)
  Rng rng(64);
  for (int iter = 0; iter < 25; ++iter) {
    const Instance inst = testing::random_instance(rng, 5);
    const Mem capacity = testing::random_capacity(rng, inst, 1.6);
    const Schedule common = schedule_windowed(
        inst, capacity, {.window = 5, .mode = WindowMode::kCommonOrder});
    const Schedule pair = schedule_windowed(
        inst, capacity, {.window = 5, .mode = WindowMode::kPairOrder});
    EXPECT_LE(pair.makespan(inst), common.makespan(inst) + 1e-9);
  }
}

TEST(WindowSolver, EmptyInstance) {
  const Schedule s = schedule_windowed(Instance{}, 1.0, {.window = 4});
  EXPECT_EQ(s.size(), 0u);
}

TEST(WindowSolver, PairModeLowerBoundPrunesWithoutChangingSchedules) {
  // The carried-state-strengthened capacity-aware bound lets a window's
  // pair search stop at the first incumbent that provably matches it.
  // Pruning must be pure acceleration: identical schedules, strictly
  // fewer pairs simulated over the corpus, and at least one window
  // actually closed by the bound (a regression here means the early exit
  // went dead — e.g. the bound stopped accounting for the carried state).
  Rng rng(65);
  std::uint64_t pruned_pairs = 0;
  std::uint64_t full_pairs = 0;
  std::size_t proved = 0;
  for (int iter = 0; iter < 15; ++iter) {
    const Instance inst = testing::random_instance(rng, 11);
    const Mem capacity = testing::random_capacity(rng, inst, 1.8);
    const WindowedResult with_lb = solve_windowed(
        inst, capacity,
        {.window = 4, .mode = WindowMode::kPairOrder, .use_lower_bounds = true});
    const WindowedResult without_lb = solve_windowed(
        inst, capacity,
        {.window = 4, .mode = WindowMode::kPairOrder, .use_lower_bounds = false});
    for (TaskId id = 0; id < inst.size(); ++id) {
      EXPECT_EQ(with_lb.schedule[id].comm_start,
                without_lb.schedule[id].comm_start) << "task " << id;
      EXPECT_EQ(with_lb.schedule[id].comp_start,
                without_lb.schedule[id].comp_start) << "task " << id;
    }
    EXPECT_EQ(without_lb.windows_proved, 0u);
    pruned_pairs += with_lb.pairs_simulated;
    full_pairs += without_lb.pairs_simulated;
    proved += with_lb.windows_proved;
  }
  EXPECT_LT(pruned_pairs, full_pairs);
  EXPECT_GT(proved, 0u);
}

}  // namespace
}  // namespace dts
