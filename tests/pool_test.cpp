/// Stress and contract tests for the SolverPool work-queue subsystem:
/// N producers x M workers under mixed deadlines and mid-flight
/// cancellations (no job lost or run twice, every handle reaches exactly
/// one terminal state, uncancelled results byte-identical to a serial
/// dts::solve() of the same request), deadline expiry in the queue,
/// priority scheduling, graceful shutdown in both drain modes, the
/// bounded queue's backpressure, and the Executor fan-out surface. This
/// suite (with cancellation_test and differential_test) is the TSan
/// gate for the concurrency layer.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/pool.hpp"
#include "core/validate.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"
#include "trace/generators.hpp"

namespace dts {
namespace {

SolveOptions quiet_options() {
  SolveOptions options;
  options.parallel_candidates = false;  // the pool is the parallelism
  options.compute_bounds = false;
  return options;
}

/// Spins until the pool actually dequeued the job (so "running" scenarios
/// do not depend on scheduler timing).
void wait_until_running(const JobHandle& handle) {
  while (handle.status() == JobStatus::kQueued) std::this_thread::yield();
}

/// A job that keeps a worker busy until cancelled: local search with an
/// effectively unbounded iteration budget on a wide instance.
JobRequest long_running_job() {
  Rng rng(404);
  JobRequest job;
  job.request.instance = testing::random_instance(rng, 80);
  job.request.capacity = 1.25 * job.request.instance.min_capacity();
  job.solver = "local-search";
  job.options = quiet_options();
  job.options.max_iterations = 100000000;
  job.options.max_no_improve = 100000000;  // never stop on its own
  job.tag = "long-running";
  return job;
}

TEST(SolverPool, StressProducersCancellationsDeadlines) {
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kJobsPerProducer = 12;
  constexpr std::size_t kTotal = kProducers * kJobsPerProducer;

  // Deterministic per-job requests, prepared up front so the serial
  // baseline and the pool solve the same bytes.
  struct Case {
    JobRequest job;
    SolveResult serial;
    bool cancel_midflight = false;
    bool tight_deadline = false;
  };
  std::vector<Case> cases(kTotal);
  {
    Rng rng(20260730);
    for (std::size_t k = 0; k < kTotal; ++k) {
      Case& c = cases[k];
      c.job.request.instance =
          testing::random_instance(rng, 8 + rng.index(16));
      c.job.request.capacity =
          testing::random_capacity(rng, c.job.request.instance);
      c.job.options = quiet_options();
      switch (k % 3) {
        case 0: c.job.solver = "auto"; break;
        case 1: c.job.solver = "SCMR"; break;
        default:
          c.job.solver = "local-search";
          c.job.options.max_iterations = 2000;
          break;
      }
      c.job.tag = std::to_string(k);
      c.cancel_midflight = k % 5 == 4;
      // A zero deadline is already expired at submission: the pool must
      // resolve the job as cancelled without running it.
      c.tight_deadline = k % 11 == 10;
      if (c.tight_deadline) c.job.deadline_seconds = 0.0;
      c.serial = solve(c.job.request, c.job.solver, c.job.options);
    }
  }

  SolverPoolOptions pool_options;
  pool_options.workers = 4;
  pool_options.queue_capacity = 8;  // force producer backpressure
  SolverPool pool(pool_options);

  std::vector<JobHandle> handles(kTotal);
  std::vector<std::thread> producers;
  std::atomic<std::size_t> submitted{0};
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t j = 0; j < kJobsPerProducer; ++j) {
        const std::size_t k = p * kJobsPerProducer + j;
        handles[k] = pool.submit(cases[k].job);  // blocks when full
        submitted.fetch_add(1);
        if (cases[k].cancel_midflight) handles[k].cancel();
      }
    });
  }
  for (std::thread& t : producers) t.join();
  ASSERT_EQ(submitted.load(), kTotal);

  // Every handle reaches a terminal state (nothing lost, nothing stuck).
  std::size_t done = 0;
  std::size_t cancelled = 0;
  for (std::size_t k = 0; k < kTotal; ++k) {
    const JobOutcome& outcome = handles[k].wait();
    EXPECT_TRUE(is_terminal(outcome.status)) << k;
    EXPECT_NE(outcome.status, JobStatus::kFailed)
        << k << ": " << outcome.error;
    if (outcome.status == JobStatus::kDone) ++done;
    if (outcome.status == JobStatus::kCancelled) ++cancelled;

    const Case& c = cases[k];
    if (c.tight_deadline) {
      // Expired before start: no result, deadline-specific reason.
      EXPECT_EQ(outcome.status, JobStatus::kCancelled) << k;
      EXPECT_FALSE(outcome.has_result) << k;
      EXPECT_NE(outcome.error.find("deadline"), std::string::npos) << k;
      continue;
    }
    if (outcome.status == JobStatus::kDone) {
      // Byte-identical to the serial solve of the same request.
      ASSERT_TRUE(outcome.has_result) << k;
      EXPECT_EQ(outcome.result.winner, c.serial.winner) << k;
      EXPECT_EQ(outcome.result.makespan, c.serial.makespan) << k;
      ASSERT_EQ(outcome.result.schedule.size(), c.serial.schedule.size());
      for (TaskId i = 0; i < c.serial.schedule.size(); ++i) {
        EXPECT_EQ(outcome.result.schedule[i].comm_start,
                  c.serial.schedule[i].comm_start)
            << k << "/" << i;
        EXPECT_EQ(outcome.result.schedule[i].comp_start,
                  c.serial.schedule[i].comp_start)
            << k << "/" << i;
      }
    } else if (outcome.has_result) {
      // Cancelled mid-flight with an incumbent: still complete + feasible.
      EXPECT_TRUE(outcome.result.schedule.complete()) << k;
      EXPECT_TRUE(testing::feasible(c.job.request.instance,
                                    outcome.result.schedule,
                                    c.job.request.capacity))
          << k;
    }
  }

  // Terminal accounting adds up exactly once per job.
  const SolverPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.submitted, kTotal);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.done, done);
  EXPECT_EQ(stats.cancelled, cancelled);
  EXPECT_EQ(stats.done + stats.cancelled + stats.failed, kTotal);
  EXPECT_EQ(stats.queued, 0u);
  EXPECT_LE(stats.peak_queued, pool_options.queue_capacity);

  pool.shutdown(DrainMode::kDrain);
}

TEST(SolverPool, DeadlineExpiresWhileQueued) {
  SolverPoolOptions options;
  options.workers = 1;
  SolverPool pool(options);

  const JobHandle blocker = pool.submit(long_running_job());
  wait_until_running(blocker);
  JobRequest hurried = long_running_job();
  hurried.deadline_seconds = 1e-3;
  hurried.tag = "hurried";
  const JobHandle late = pool.submit(hurried);

  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  blocker.cancel();

  const JobOutcome& outcome = late.wait();
  EXPECT_EQ(outcome.status, JobStatus::kCancelled);
  EXPECT_FALSE(outcome.has_result);
  EXPECT_NE(outcome.error.find("deadline expired"), std::string::npos);

  const JobOutcome& blocked = blocker.wait();
  EXPECT_EQ(blocked.status, JobStatus::kCancelled);
  EXPECT_TRUE(blocked.has_result);  // best-so-far incumbent
  pool.shutdown(DrainMode::kDrain);
}

TEST(SolverPool, UnrepresentableDeadlineMeansNoDeadline) {
  // 1e10 s is past what the steady clock can count from now: the job
  // must run to completion, not expire before it starts.
  SolverPoolOptions options;
  options.workers = 1;
  SolverPool pool(options);
  Rng rng(405);
  JobRequest job;
  job.request.instance = testing::random_instance(rng, 20);
  job.request.capacity = 1.25 * job.request.instance.min_capacity();
  job.solver = "local-search";
  job.options = quiet_options();
  job.options.max_iterations = 200;
  job.deadline_seconds = 1e10;
  const JobOutcome& outcome = pool.submit(job).wait();
  EXPECT_EQ(outcome.status, JobStatus::kDone) << outcome.error;
  ASSERT_TRUE(outcome.has_result);
  EXPECT_FALSE(outcome.result.cancelled);
  EXPECT_EQ(outcome.result.makespan,
            solve(job.request, job.solver, job.options).makespan);
  pool.shutdown(DrainMode::kDrain);
}

TEST(SolverPool, PriorityPolicyRunsHighPriorityFirst) {
  SolverPoolOptions options;
  options.workers = 1;
  options.policy = SolverPoolOptions::Policy::kPriority;
  SolverPool pool(options);

  // Hold the single worker so submissions pile up in the queue.
  const JobHandle blocker = pool.submit(long_running_job());
  wait_until_running(blocker);

  Rng rng(11);
  const Instance inst = testing::random_instance(rng, 10);
  const auto queued_job = [&](int priority, const std::string& tag) {
    JobRequest job;
    job.request.instance = inst;
    job.request.capacity = 1.5 * inst.min_capacity();
    job.solver = "SCMR";
    job.options = quiet_options();
    job.priority = priority;
    job.tag = tag;
    return pool.submit(std::move(job));
  };
  const JobHandle low = queued_job(0, "low");
  const JobHandle mid = queued_job(3, "mid");
  const JobHandle high = queued_job(9, "high");
  const JobHandle mid2 = queued_job(3, "mid2");

  blocker.cancel();
  // Completion sequence reflects the priority order, FIFO among ties.
  EXPECT_LT(high.wait().sequence, mid.wait().sequence);
  EXPECT_LT(mid.wait().sequence, mid2.wait().sequence);
  EXPECT_LT(mid2.wait().sequence, low.wait().sequence);
  pool.shutdown(DrainMode::kDrain);
}

TEST(SolverPool, ShutdownDrainFinishesQueuedWork) {
  SolverPoolOptions options;
  options.workers = 2;
  SolverPool pool(options);
  Rng rng(5);
  std::vector<JobHandle> handles;
  for (int k = 0; k < 8; ++k) {
    JobRequest job;
    job.request.instance = testing::random_instance(rng, 12);
    job.request.capacity = 1.5 * job.request.instance.min_capacity();
    job.solver = "auto";
    job.options = quiet_options();
    handles.push_back(pool.submit(std::move(job)));
  }
  pool.shutdown(DrainMode::kDrain);
  for (const JobHandle& handle : handles) {
    EXPECT_EQ(handle.status(), JobStatus::kDone);
    EXPECT_TRUE(handle.wait().has_result);
  }
  EXPECT_THROW((void)pool.submit(JobRequest{}), std::runtime_error);
  EXPECT_FALSE(pool.try_submit(JobRequest{}).has_value());
}

TEST(SolverPool, ShutdownCancelResolvesQueuedAndRunning) {
  SolverPoolOptions options;
  options.workers = 1;
  SolverPool pool(options);
  const JobHandle running = pool.submit(long_running_job());
  wait_until_running(running);
  Rng rng(6);
  JobRequest queued;
  queued.request.instance = testing::random_instance(rng, 10);
  queued.request.capacity = 1.5 * queued.request.instance.min_capacity();
  queued.solver = "auto";
  queued.options = quiet_options();
  const JobHandle waiting = pool.submit(std::move(queued));

  pool.shutdown(DrainMode::kCancel);  // returns only once workers joined
  EXPECT_EQ(running.status(), JobStatus::kCancelled);
  EXPECT_EQ(waiting.status(), JobStatus::kCancelled);
  EXPECT_FALSE(waiting.wait().has_result);
  EXPECT_NE(waiting.wait().error.find("shut down"), std::string::npos);
}

TEST(SolverPool, TrySubmitRefusesWhenFull) {
  SolverPoolOptions options;
  options.workers = 1;
  options.queue_capacity = 1;
  SolverPool pool(options);
  const JobHandle running = pool.submit(long_running_job());
  wait_until_running(running);

  // The worker is busy; capacity 1 admits exactly one queued job.
  const auto first = pool.try_submit(long_running_job());
  ASSERT_TRUE(first.has_value());
  const auto second = pool.try_submit(long_running_job());
  EXPECT_FALSE(second.has_value());

  running.cancel();
  first->cancel();
  pool.shutdown(DrainMode::kCancel);
}

TEST(SolverPool, CancelledQueuedJobFreesItsQueueSlot) {
  SolverPoolOptions options;
  options.workers = 1;
  options.queue_capacity = 1;
  SolverPool pool(options);
  const JobHandle running = pool.submit(long_running_job());
  wait_until_running(running);

  const auto queued = pool.try_submit(long_running_job());
  ASSERT_TRUE(queued.has_value());
  ASSERT_FALSE(pool.try_submit(long_running_job()).has_value());  // full

  // Cancelling the queued job reclaims its slot without a worker's help.
  queued->cancel();
  EXPECT_EQ(queued->status(), JobStatus::kCancelled);
  const auto replacement = pool.try_submit(long_running_job());
  EXPECT_TRUE(replacement.has_value());

  // A producer blocked in submit() wakes when the slot frees.
  std::thread producer([&] {
    const JobHandle handle = pool.submit(long_running_job());
    handle.cancel();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  replacement->cancel();  // frees the slot the producer is waiting for
  producer.join();

  running.cancel();
  pool.shutdown(DrainMode::kCancel);
}

TEST(SolverPool, ForEachPropagatesExceptionsAfterAllIterations) {
  SolverPoolOptions options;
  options.workers = 3;
  SolverPool pool(options);
  std::vector<std::atomic<int>> hits(64);
  EXPECT_THROW(pool.for_each(hits.size(),
                             [&](std::size_t i) {
                               hits[i].fetch_add(1);
                               if (i % 17 == 3) {
                                 throw std::runtime_error("boom");
                               }
                             }),
               std::runtime_error);
  // No iteration was abandoned mid-flight and none ran twice — the
  // throw surfaced on the caller, not on a worker (which would have
  // std::terminate'd the process).
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
  // The crew survived and still serves work.
  Rng rng(9);
  JobRequest job;
  job.request.instance = testing::random_instance(rng, 8);
  job.request.capacity = 1.5 * job.request.instance.min_capacity();
  job.solver = "OS";
  job.options = quiet_options();
  EXPECT_EQ(pool.submit(std::move(job)).wait().status, JobStatus::kDone);
  pool.shutdown(DrainMode::kDrain);
}

TEST(SolverPool, ForEachRunsEveryIndexExactlyOnce) {
  SolverPoolOptions options;
  options.workers = 3;
  SolverPool pool(options);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.for_each(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  pool.for_each(0, [&](std::size_t) { FAIL() << "n == 0 must not call fn"; });
  pool.shutdown(DrainMode::kDrain);
}

/// Solves `inst` at 1.5 mc once serially and once with `pool` as the
/// executor, and expects the same winner, makespan and schedule.
void expect_pool_matches_serial(SolverPool& pool, const Instance& inst,
                                const char* solver) {
  const SolveRequest request{.instance = inst,
                             .capacity = 1.5 * inst.min_capacity()};
  SolveOptions serial;
  serial.parallel_candidates = false;
  serial.compute_bounds = false;
  const SolveResult expected = solve(request, solver, serial);
  // parallel_candidates stays on (the default): it gates candidate
  // fan-out, and the executor branch is what this test exercises.
  SolveOptions pooled;
  pooled.compute_bounds = false;
  pooled.executor = &pool;
  const SolveResult actual = solve(request, solver, pooled);
  EXPECT_EQ(actual.winner, expected.winner) << solver;
  EXPECT_EQ(actual.makespan, expected.makespan) << solver;
  ASSERT_EQ(actual.schedule.size(), expected.schedule.size());
  for (TaskId i = 0; i < expected.schedule.size(); ++i) {
    EXPECT_EQ(actual.schedule[i].comm_start, expected.schedule[i].comm_start)
        << solver << "/" << i;
    EXPECT_EQ(actual.schedule[i].comp_start, expected.schedule[i].comp_start)
        << solver << "/" << i;
  }
}

TEST(SolverPool, PoolAsSolverExecutorMatchesSerialResults) {
  // SolveOptions::executor fans auto and batch-auto candidate trials and
  // the exhaustive and window enumerations across the pool; results must
  // be identical to the serial path. The CCSD-DAG batch covers the losing
  // trials taking the winner's engine and schedule entries while trials
  // run concurrently.
  Rng rng(17);
  const Instance inst = testing::random_instance(rng, 18);
  const Instance small = testing::random_instance(rng, 9);
  const Instance dag = generate_ccsd_dag_trace(
      TraceConfig{.seed = 5, .min_tasks = 40, .max_tasks = 40});
  ASSERT_TRUE(dag.has_dependencies());

  SolverPoolOptions pool_options;
  pool_options.workers = 3;
  SolverPool pool(pool_options);
  expect_pool_matches_serial(pool, inst, "auto");
  expect_pool_matches_serial(pool, inst, "auto-batch:6");
  expect_pool_matches_serial(pool, inst, "window:6");
  expect_pool_matches_serial(pool, small, "exhaustive");
  expect_pool_matches_serial(pool, dag, "auto-batch:4");
  pool.shutdown(DrainMode::kDrain);
}

TEST(SolverPool, HandleContract) {
  const JobHandle empty;
  EXPECT_FALSE(empty.valid());
  EXPECT_THROW((void)empty.status(), std::logic_error);
  EXPECT_THROW((void)empty.wait(), std::logic_error);

  EXPECT_THROW(SolverPool({.workers = 1, .queue_capacity = 0}),
               std::invalid_argument);

  // Handles (and their outcomes) outlive the pool.
  JobHandle survivor;
  {
    SolverPool pool({.workers = 1});
    Rng rng(3);
    JobRequest job;
    job.request.instance = testing::random_instance(rng, 8);
    job.request.capacity = 1.5 * job.request.instance.min_capacity();
    job.solver = "OS";
    job.options = quiet_options();
    survivor = pool.submit(std::move(job));
    (void)survivor.wait();
  }  // ~SolverPool
  EXPECT_TRUE(survivor.terminal());
  EXPECT_TRUE(survivor.wait().has_result);
  survivor.cancel();  // no-op on a terminal job, must not crash
  EXPECT_EQ(survivor.status(), JobStatus::kDone);
}

TEST(SolverPool, TrySubmitStatusDistinguishesFullFromShutdown) {
  SolverPoolOptions options;
  options.workers = 1;
  options.queue_capacity = 1;
  SolverPool pool(options);
  const JobHandle running = pool.submit(long_running_job());
  wait_until_running(running);

  // Worker busy, one slot: accepted, then refused as *transient* — the
  // handle stays untouched on refusal.
  JobHandle queued;
  ASSERT_EQ(pool.try_submit(long_running_job(), queued),
            SubmitStatus::kAccepted);
  JobHandle untouched;
  EXPECT_EQ(pool.try_submit(long_running_job(), untouched),
            SubmitStatus::kQueueFull);
  EXPECT_FALSE(untouched.valid());

  running.cancel();
  queued.cancel();
  pool.shutdown(DrainMode::kCancel);

  // After shutdown the refusal is *terminal* — kShuttingDown, never
  // kQueueFull, even though the queue is also empty now.
  EXPECT_EQ(pool.try_submit(long_running_job(), untouched),
            SubmitStatus::kShuttingDown);
  EXPECT_FALSE(untouched.valid());
}

TEST(SolverPool, LateSubmitRacingDrainShutdownIsDeterministic) {
  // Regression: a submit racing shutdown(kDrain) must either be accepted
  // (and then run to completion under the drain) or be refused with the
  // terminal kShuttingDown status — never throw, never lose the job, and
  // never resolve an accepted job as anything but done.
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kJobsPerProducer = 24;

  SolverPoolOptions options;
  options.workers = 2;
  options.queue_capacity = 256;  // the race under test is shutdown, not full
  SolverPool pool(options);

  std::atomic<bool> start{false};
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> refused{0};
  std::vector<std::vector<JobHandle>> handles(kProducers);
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      Rng rng(900 + p);
      while (!start.load()) std::this_thread::yield();
      for (std::size_t k = 0; k < kJobsPerProducer; ++k) {
        JobRequest job;
        job.request.instance = testing::random_instance(rng, 6 + rng.index(6));
        job.request.capacity = 1.5 * job.request.instance.min_capacity();
        job.solver = "auto";
        job.options = quiet_options();
        job.tag = std::to_string(p) + "-" + std::to_string(k);
        JobHandle handle;
        switch (pool.try_submit(std::move(job), handle)) {
          case SubmitStatus::kAccepted:
            accepted.fetch_add(1);
            handles[p].push_back(std::move(handle));
            break;
          case SubmitStatus::kShuttingDown:
            refused.fetch_add(1);
            EXPECT_FALSE(handle.valid());
            break;
          case SubmitStatus::kQueueFull:
            ADD_FAILURE() << "queue-full on a 256-slot queue";
            break;
        }
      }
    });
  }

  start.store(true);
  pool.shutdown(DrainMode::kDrain);  // races the producers by design
  for (std::thread& t : producers) t.join();

  EXPECT_EQ(accepted.load() + refused.load(), kProducers * kJobsPerProducer);
  // After shutdown() returned, every accepted job is already resolved —
  // drained, not cancelled or lost.
  std::size_t resolved = 0;
  for (const std::vector<JobHandle>& batch : handles) {
    for (const JobHandle& handle : batch) {
      EXPECT_TRUE(handle.terminal());
      EXPECT_EQ(handle.status(), JobStatus::kDone);
      EXPECT_TRUE(handle.wait().has_result);
      ++resolved;
    }
  }
  EXPECT_EQ(resolved, accepted.load());
  // And late submits keep refusing deterministically.
  JobHandle late;
  EXPECT_EQ(pool.try_submit(long_running_job(), late),
            SubmitStatus::kShuttingDown);
}

}  // namespace
}  // namespace dts
