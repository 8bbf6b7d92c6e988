#pragma once

/// \file pool.hpp
/// SolverPool — the concurrent solve service. A bounded work queue feeds a
/// fixed crew of worker threads; each worker resolves the job's solver in
/// the global registry and runs dts::solve() with the job's own
/// cancellation token and its remaining deadline budget. The pool turns
/// the library of solvers into a service that can sit under sustained
/// traffic:
///
///   SolverPool pool({.workers = 4});
///   JobHandle h = pool.submit({.request = {inst, capacity},
///                              .solver = "auto",
///                              .deadline_seconds = 0.5});
///   const JobOutcome& outcome = h.wait();   // or h.cancel() / h.status()
///   pool.shutdown(DrainMode::kDrain);       // finish queued work, then stop
///
/// Guarantees (tests/pool_test.cpp):
///   * every submitted job reaches exactly one terminal state — nothing is
///     lost, nothing runs twice, even across cancellations and shutdown;
///   * an uncancelled job's result is identical to a serial dts::solve()
///     of the same request (workers add no nondeterminism);
///   * destruction never blocks on solver completion longer than the
///     solvers' own cancellation latency: the destructor cancels queued
///     and running work, then joins.
///
/// The pool is also an Executor, and the library's only one: solvers fan
/// internal subtasks (auto and batch-auto candidate trials, exhaustive
/// and window enumeration) across the same workers via
/// SolveOptions::executor. Jobs that leave the executor unset get this
/// pool installed automatically — inner fan-out shares the crew instead
/// of starting a crew per job, so N concurrent jobs never oversubscribe
/// the machine. Subtasks bypass
/// the job queue and its capacity bound, and the calling thread
/// participates, so fan-out from inside a pool job cannot deadlock.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "core/job.hpp"

namespace dts {

/// How shutdown treats work that has not finished.
enum class DrainMode {
  kDrain,   ///< run every queued job to completion, then stop
  kCancel,  ///< cancel queued jobs, ask running jobs to stop, then stop
};

/// Outcome of a non-blocking submit. The two refusal reasons are
/// deliberately distinct: a full queue is transient (back off and retry —
/// the admission-control "shed" signal), while a shutting-down pool is
/// terminal (drain the connection — retrying can never succeed). The
/// optional-returning try_submit() conflated them, which left services
/// racing shutdown unable to answer "retry or go away?" deterministically.
enum class SubmitStatus {
  kAccepted,      ///< job enqueued; the handle is valid
  kQueueFull,     ///< transient: queue at capacity, retry later
  kShuttingDown,  ///< terminal: shutdown began, no submit can ever succeed
};

struct SolverPoolOptions {
  /// Worker threads; 0 means one per hardware thread (clamped to
  /// [1, 64]).
  std::size_t workers = 0;
  /// Upper bound on *queued* (not yet running) jobs. submit() blocks while
  /// the queue is full — natural producer backpressure; try_submit()
  /// refuses instead. Must be >= 1.
  std::size_t queue_capacity = 1024;
  enum class Policy {
    kFifo,      ///< submission order
    kPriority,  ///< JobRequest::priority desc, ties in submission order
  };
  Policy policy = Policy::kFifo;
};

class SolverPool final : public Executor {
 public:
  explicit SolverPool(const SolverPoolOptions& options = {});
  ~SolverPool() override;

  SolverPool(const SolverPool&) = delete;
  SolverPool& operator=(const SolverPool&) = delete;

  /// Enqueues a job; blocks while the queue is at capacity. Throws
  /// std::runtime_error once shutdown began. Do not call from a worker
  /// thread (a full queue would deadlock the crew); solvers fan subtasks
  /// via the Executor interface instead.
  [[nodiscard]] JobHandle submit(JobRequest request);

  /// Non-blocking submit: nullopt when the queue is full or the pool is
  /// shutting down. Callers that must distinguish the two (admission
  /// control vs. drain) use the status-reporting overload below.
  [[nodiscard]] std::optional<JobHandle> try_submit(JobRequest request);

  /// Non-blocking submit with a deterministic refusal reason. On
  /// kAccepted, `out` holds the job's handle; otherwise `out` is left
  /// untouched. A pool in shutdown always reports kShuttingDown, even
  /// when the queue is also full — the terminal condition dominates the
  /// transient one.
  [[nodiscard]] SubmitStatus try_submit(JobRequest request, JobHandle& out);

  /// Stops accepting work and resolves everything in flight according to
  /// `mode`, then joins the workers. Idempotent; concurrent callers block
  /// until the first shutdown completed. The destructor runs
  /// shutdown(DrainMode::kCancel).
  void shutdown(DrainMode mode = DrainMode::kDrain);

  /// Executor: run fn(i) for i in [0, n) across the workers, calling
  /// thread included. Returns when every iteration finished.
  void for_each(std::size_t n,
                const std::function<void(std::size_t)>& fn) override;

  [[nodiscard]] std::size_t worker_count() const noexcept {
    return workers_.size();
  }

  /// Point-in-time service counters (monotonic except `queued`).
  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t done = 0;
    std::uint64_t cancelled = 0;  ///< before start or mid-run
    std::uint64_t failed = 0;
    std::size_t queued = 0;       ///< waiting in the queue right now
    std::size_t peak_queued = 0;  ///< high-water mark of `queued`
  };
  [[nodiscard]] Stats stats() const;

 private:
  struct QueuedJob {
    std::shared_ptr<detail::JobState> job;
    /// Selection key under kPriority; queue position breaks ties (FIFO).
    int priority = 0;
  };

  void worker_loop();
  void run_job(const std::shared_ptr<detail::JobState>& job);
  /// Pops the next job under `mutex_` (held by the caller) following the
  /// configured policy.
  [[nodiscard]] std::shared_ptr<detail::JobState> pop_job_locked();
  /// Drops queue entries whose job already resolved (cancelled while
  /// queued) so they stop counting against queue_capacity. Caller holds
  /// `mutex_`.
  void prune_resolved_locked();
  /// Creates, arms and enqueues the job. Caller holds `mutex_` and has
  /// verified capacity/accepting.
  [[nodiscard]] std::shared_ptr<detail::JobState> enqueue_locked(
      JobRequest request);

  const SolverPoolOptions options_;
  std::shared_ptr<detail::JobCounters> counters_ =
      std::make_shared<detail::JobCounters>();

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;      ///< workers: work available / stop
  std::condition_variable not_full_cv_;  ///< producers: queue has room
  std::deque<QueuedJob> queue_;
  std::deque<std::function<void()>> subtasks_;  ///< Executor fan-out, runs first
  /// Jobs currently executing, so shutdown(kCancel) can reach their tokens.
  std::vector<std::shared_ptr<detail::JobState>> running_;
  bool accepting_ = true;
  bool stopping_ = false;
  std::uint64_t next_id_ = 0;
  std::size_t peak_queued_ = 0;

  /// Serializes shutdown; `joined_` is only touched under it.
  std::mutex shutdown_mutex_;
  bool joined_ = false;

  std::vector<std::thread> workers_;
};

/// Convenience fan-out: submit every request and wait for all outcomes,
/// returned in input order. Blocks the calling thread (which acts as the
/// producer); do not call from a pool worker.
[[nodiscard]] std::vector<JobOutcome> solve_all(SolverPool& pool,
                                                std::vector<JobRequest> requests);

}  // namespace dts
