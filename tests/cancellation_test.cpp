/// Deadline/cancellation propagation into the anytime solvers: window:K,
/// local-search and exhaustive must stop promptly under a short time limit
/// or an already-fired CancellationToken, and still return a complete
/// feasible best-so-far schedule.

#include <gtest/gtest.h>

#include <chrono>
#include <limits>

#include "core/pool.hpp"
#include "core/registry.hpp"
#include "core/solver.hpp"
#include "core/validate.hpp"
#include "exact/exhaustive.hpp"
#include "exact/window_solver.hpp"
#include "heuristics/local_search.hpp"
#include "test_util.hpp"

namespace dts {
namespace {

Instance wide_instance(std::size_t n) {
  Rng rng(99);
  return testing::random_instance(rng, n);
}

double run_seconds(const auto& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

TEST(Cancellation, PreCancelledWindowSolverFallsBackToSubmissionOrder) {
  const Instance inst = wide_instance(18);
  const Mem capacity = 1.5 * inst.min_capacity();
  SolveOptions options;
  const CancellationToken token = CancellationToken::source();
  token.cancel();
  options.cancel = token;
  for (const char* solver : {"window:4", "window:3:pair"}) {
    const SolveResult res =
        solve({.instance = inst, .capacity = capacity}, solver, options);
    EXPECT_TRUE(res.cancelled) << solver;
    EXPECT_TRUE(res.schedule.complete()) << solver;
    EXPECT_TRUE(validate_schedule(inst, res.schedule, capacity).ok())
        << solver;
    // No window was optimized: the whole schedule is the OS fallback.
    EXPECT_DOUBLE_EQ(
        res.makespan,
        run_heuristic(HeuristicId::kOS, inst, capacity).makespan(inst))
        << solver;
  }
}

TEST(Cancellation, PreCancelledLocalSearchSkipsEvenTheSeedPass) {
  const Instance inst = wide_instance(20);
  const Mem capacity = 1.5 * inst.min_capacity();
  SolveOptions options;
  const CancellationToken token = CancellationToken::source();
  token.cancel();
  options.cancel = token;
  const SolveResult res =
      solve({.instance = inst, .capacity = capacity}, "local-search", options);
  EXPECT_TRUE(res.cancelled);
  EXPECT_EQ(res.evaluations, 0u);  // no candidate was even simulated
  EXPECT_TRUE(validate_schedule(inst, res.schedule, capacity).ok());
  // The auto-scheduler seed pass is skipped too: the best-so-far is the
  // cheapest complete schedule, the submission order.
  EXPECT_DOUBLE_EQ(
      res.makespan,
      run_heuristic(HeuristicId::kOS, inst, capacity).makespan(inst));
}

TEST(Cancellation, ZeroTimeLimitStopsBothSolversImmediately) {
  const Instance inst = wide_instance(16);
  const Mem capacity = 1.25 * inst.min_capacity();
  SolveOptions options;
  options.time_limit_seconds = 0.0;
  for (const char* solver : {"window:4", "local-search"}) {
    const SolveResult res =
        solve({.instance = inst, .capacity = capacity}, solver, options);
    EXPECT_TRUE(res.cancelled) << solver;
    EXPECT_TRUE(validate_schedule(inst, res.schedule, capacity).ok())
        << solver;
  }
}

TEST(Cancellation, ShortDeadlineStopsLocalSearchPromptly) {
  // A large instance with an effectively unbounded iteration budget: only
  // the deadline can end the search. The generous wall-clock bound keeps
  // the test robust on loaded CI machines while still proving the limit
  // is honored (an unbounded run would take far longer).
  const Instance inst = wide_instance(160);
  const Mem capacity = 1.25 * inst.min_capacity();
  SolveOptions options;
  options.time_limit_seconds = 0.05;
  options.max_iterations = 100000000;
  options.max_no_improve = 100000000;
  SolveResult res;
  const double elapsed = run_seconds([&] {
    res = solve({.instance = inst, .capacity = capacity}, "local-search",
                options);
  });
  EXPECT_TRUE(res.cancelled);
  EXPECT_LT(elapsed, 5.0);
  EXPECT_TRUE(validate_schedule(inst, res.schedule, capacity).ok());
}

TEST(Cancellation, UnrepresentableTimeLimitMeansNoLimit) {
  // Budgets past what the steady clock can count from now (infinity,
  // 1e10 s) are no limit: local search runs its whole iteration budget,
  // exactly as without one.
  const Instance inst = wide_instance(20);
  const Mem capacity = 1.25 * inst.min_capacity();
  SolveOptions unlimited;
  unlimited.max_iterations = 500;
  const SolveResult expected =
      solve({.instance = inst, .capacity = capacity}, "local-search",
            unlimited);
  ASSERT_GT(expected.evaluations, 0u);
  for (const double limit : {std::numeric_limits<double>::infinity(), 1e10}) {
    SolveOptions options = unlimited;
    options.time_limit_seconds = limit;
    const SolveResult res = solve({.instance = inst, .capacity = capacity},
                                  "local-search", options);
    EXPECT_FALSE(res.cancelled) << limit;
    EXPECT_EQ(res.evaluations, expected.evaluations) << limit;
    EXPECT_EQ(res.makespan, expected.makespan) << limit;
  }
}

TEST(Cancellation, MidRunTokenKeepsTheWindowPrefixOptimized) {
  // Cancel after the first window boundary poll: the already-optimized
  // prefix is kept, the tail drains in submission order, and the result
  // stays feasible.
  const Instance inst = wide_instance(12);
  const Mem capacity = 1.5 * inst.min_capacity();
  int polls = 0;
  WindowOptions options;
  options.window = 3;
  options.should_stop = [&polls] { return ++polls > 1; };
  const WindowedResult res = solve_windowed(inst, capacity, options);
  EXPECT_TRUE(res.stopped);
  EXPECT_EQ(res.windows_optimized, 1u);
  EXPECT_TRUE(res.schedule.complete());
  EXPECT_TRUE(validate_schedule(inst, res.schedule, capacity).ok());
}

TEST(Cancellation, LocalSearchStopCallbackCountsAsStopped) {
  const Instance inst = wide_instance(24);
  const Mem capacity = 1.5 * inst.min_capacity();
  int budget = 50;
  LocalSearchOptions options;
  options.should_stop = [&budget] { return --budget < 0; };
  const LocalSearchResult res =
      schedule_local_search(inst, capacity, options);
  EXPECT_TRUE(res.stopped);
  EXPECT_LE(res.iterations, 50u);
  EXPECT_TRUE(validate_schedule(inst, res.schedule, capacity).ok());
  EXPECT_LE(res.makespan, res.initial_makespan + 1e-9);
}

constexpr std::uint64_t kTenFactorial = 3628800;

TEST(Cancellation, StoppedExhaustiveFallsBackToSubmissionOrder) {
  // Ten distinct tasks: an unstopped search would simulate all 10!
  // orders. Both stops fire at the first poll, serially and in every
  // parallel branch, so no incumbent exists and the submission order is
  // returned.
  const Instance inst = wide_instance(10);
  const Mem capacity = 1.25 * inst.min_capacity();
  const Time fallback =
      run_heuristic(HeuristicId::kOS, inst, capacity).makespan(inst);
  SolverPool pool(SolverPoolOptions{.workers = 2});
  for (Executor* executor : {static_cast<Executor*>(nullptr),
                             static_cast<Executor*>(&pool)}) {
    SolveOptions cancelled;
    const CancellationToken token = CancellationToken::source();
    token.cancel();
    cancelled.cancel = token;
    SolveOptions zero_limit;
    zero_limit.time_limit_seconds = 0.0;
    for (SolveOptions options : {cancelled, zero_limit}) {
      options.executor = executor;
      const SolveResult res = solve({.instance = inst, .capacity = capacity},
                                    "exhaustive", options);
      EXPECT_TRUE(res.cancelled);
      EXPECT_TRUE(res.schedule.complete());
      EXPECT_TRUE(validate_schedule(inst, res.schedule, capacity).ok());
      EXPECT_LT(res.evaluations, kTenFactorial);
      EXPECT_DOUBLE_EQ(res.makespan, fallback);
    }
  }
}

TEST(Cancellation, ExhaustivePollsEvery256Permutations) {
  // The third poll stops the search: 512 orders were simulated and the
  // best of them is kept.
  const Instance inst = wide_instance(10);
  const Mem capacity = 1.25 * inst.min_capacity();
  int polls = 0;
  ExhaustiveOptions options;
  options.should_stop = [&polls] { return ++polls > 2; };
  const ExhaustiveResult res = best_common_order(inst, capacity, options);
  EXPECT_TRUE(res.stopped);
  EXPECT_EQ(polls, 3);
  EXPECT_EQ(res.permutations_tried, 512u);
  EXPECT_FALSE(res.order.empty());
  EXPECT_TRUE(validate_schedule(inst, res.schedule, capacity).ok());
}

TEST(Cancellation, UnarmedExhaustiveSearchesEveryOrder) {
  // Pinned from the search before it could stop: the same optimum and
  // the same 8! evaluations, serially and on a pool.
  const Instance inst = wide_instance(8);
  const Mem capacity = 1.25 * inst.min_capacity();
  SolverPool pool(SolverPoolOptions{.workers = 2});
  for (Executor* executor : {static_cast<Executor*>(nullptr),
                             static_cast<Executor*>(&pool)}) {
    SolveOptions options;
    options.executor = executor;
    const SolveResult res = solve({.instance = inst, .capacity = capacity},
                                  "exhaustive", options);
    EXPECT_FALSE(res.cancelled);
    EXPECT_EQ(res.makespan, 43.591043424367214);
    EXPECT_EQ(res.evaluations, 40320u);
  }
}

}  // namespace
}  // namespace dts
