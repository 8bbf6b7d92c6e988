#pragma once

/// \file job.hpp
/// One unit of work for the concurrent solve service (pool.hpp): a
/// SolveRequest plus the service-level envelope a library of solvers does
/// not know about — which solver to run, a priority, a wall-clock deadline
/// measured from submission, and a handle through which the submitter
/// observes and controls the job.
///
/// A job moves through exactly one path of
///
///   kQueued --> kRunning --> { kDone | kCancelled | kFailed }
///          \--> kCancelled            (cancelled or expired before start)
///
/// and never leaves a terminal state. JobHandle is a value type sharing
/// state with the pool; it stays valid after the pool is destroyed (the
/// pool resolves every job to a terminal state before its destructor
/// returns).

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "core/solver.hpp"
#include "support/contract.hpp"

namespace dts {

/// Minimal fan-out interface for solver-internal parallelism: run fn(i)
/// for every i in [0, n), possibly concurrently; return once all
/// iterations finished. fn must be safe to call concurrently for distinct
/// i. SolverPool implements this over its workers with the calling thread
/// participating, so a pool job may fan its own subtasks without risking
/// deadlock.
class Executor {
 public:
  virtual ~Executor() = default;
  virtual void for_each(std::size_t n,
                        const std::function<void(std::size_t)>& fn) = 0;
};

/// Lifecycle of a job. kDone means the solver ran to natural completion;
/// a run that stopped early on its deadline or a cancel() lands in
/// kCancelled even though a complete best-so-far schedule may be
/// available (JobOutcome::has_result distinguishes the two flavors).
enum class JobStatus {
  kQueued,     ///< accepted, waiting for a worker
  kRunning,    ///< a worker is executing the solve
  kDone,       ///< solver completed normally; result valid
  kCancelled,  ///< cancelled/expired (before start: no result; mid-run:
               ///< best-so-far incumbent in the result)
  kFailed,     ///< the solver threw; error holds the message
};

[[nodiscard]] std::string_view to_string(JobStatus status) noexcept;

/// True for kDone, kCancelled and kFailed — states a job never leaves.
[[nodiscard]] constexpr bool is_terminal(JobStatus status) noexcept {
  return status == JobStatus::kDone || status == JobStatus::kCancelled ||
         status == JobStatus::kFailed;
}

/// Everything the pool needs to run one solve. The embedded
/// SolveOptions are honored except for `cancel`, which the pool replaces
/// with the job's own token so JobHandle::cancel() and pool shutdown can
/// reach the run (cancel a pool job through its handle, not a private
/// token).
struct JobRequest {
  SolveRequest request;
  std::string solver = "auto";
  SolveOptions options;
  /// Larger runs earlier under SolverPoolOptions::Policy::kPriority;
  /// ignored (pure FIFO) otherwise. Ties keep submission order.
  int priority = 0;
  /// Wall-clock budget measured from submit(), covering time spent in the
  /// queue: a job dequeued with its deadline already passed is cancelled
  /// without running, and one dequeued with some budget left runs with
  /// options.time_limit_seconds tightened to the remainder (the existing
  /// anytime-solver plumbing returns the best-so-far schedule).
  std::optional<double> deadline_seconds;
  /// Free-form label carried into reports (CSV rows, logs).
  std::string tag;
};

/// Terminal snapshot of a job.
struct JobOutcome {
  JobStatus status = JobStatus::kCancelled;
  /// Valid when has_result: the solver's result, including the
  /// best-so-far incumbent of a deadline/cancel-stopped run.
  SolveResult result;
  bool has_result = false;
  /// Failure or cancellation detail ("deadline expired before the job
  /// started", the solver's exception message, ...).
  std::string error;
  /// Position in the pool-wide terminal order (0 = first job to resolve).
  /// Makes completion order observable — which jobs a priority policy
  /// actually ran first, which were drained by shutdown.
  std::uint64_t sequence = 0;
};

namespace detail {

/// Terminal-transition counters shared between a pool and its jobs (the
/// jobs keep them alive, so a handle outliving the pool stays safe).
struct JobCounters {
  std::atomic<std::uint64_t> submitted{0};
  std::atomic<std::uint64_t> done{0};
  std::atomic<std::uint64_t> cancelled{0};
  std::atomic<std::uint64_t> failed{0};
  /// Feeds JobOutcome::sequence.
  std::atomic<std::uint64_t> terminal_sequence{0};
};

/// Shared state behind JobHandle; the pool drives the status machine,
/// handles observe it. All transitions happen under one mutex; the
/// condition variable wakes waiters on the terminal transition.
class JobState {
 public:
  JobState(std::uint64_t id, JobRequest request,
           std::shared_ptr<JobCounters> counters);

  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
  [[nodiscard]] const JobRequest& request() const noexcept { return request_; }
  [[nodiscard]] const CancellationToken& token() const noexcept {
    return token_;
  }
  [[nodiscard]] const std::optional<
      std::chrono::steady_clock::time_point>&
  deadline() const noexcept {
    return deadline_;
  }

  /// Called by the pool at submission: fixes the absolute deadline.
  void arm_deadline(std::chrono::steady_clock::time_point now);

  [[nodiscard]] JobStatus status() const;

  /// Queued job: resolve to kCancelled immediately (the worker skips the
  /// stale queue entry). Running job: fire the cooperative token. Terminal
  /// job: no-op.
  void cancel(std::string reason);

  /// Blocks until the job is terminal; returns the outcome.
  [[nodiscard]] const JobOutcome& wait() const;

  /// Waits up to `seconds`; true when the job reached a terminal state.
  [[nodiscard]] bool wait_for(double seconds) const;

  /// kQueued -> kRunning. False when the job was already resolved
  /// (cancelled while queued) — the worker must skip it.
  [[nodiscard]] bool mark_running();

  /// kRunning -> terminal (worker side). The status inside `outcome`
  /// decides the terminal state.
  void finish(JobOutcome outcome);

  /// Invoked at most once, on the terminal transition, *after* the job's
  /// mutex has been released — so the hook may take locks that are
  /// ordered before the job mutex (the pool takes its own mutex inside
  /// to wake producers blocked on a full queue without losing the
  /// notification). Set before the job becomes visible to other threads.
  void set_terminal_hook(std::function<void()> hook) {
    terminal_hook_ = std::move(hook);
  }

 private:
  /// Requires lock held; performs the terminal transition exactly once.
  void finish_locked(JobOutcome&& outcome);

  const std::uint64_t id_;
  const JobRequest request_;
  const CancellationToken token_ = CancellationToken::source();
  std::optional<std::chrono::steady_clock::time_point> deadline_;
  std::shared_ptr<JobCounters> counters_;
  std::function<void()> terminal_hook_;

  mutable std::mutex mutex_;
  mutable std::condition_variable terminal_cv_;
  JobStatus status_ = JobStatus::kQueued;
  JobOutcome outcome_;
  /// Audit-mode scratch: set by the one permitted terminal transition so
  /// a second transition trips the contract instead of racing silently.
  DTS_AUDIT_ONLY(bool audit_terminal_ = false;)
};

}  // namespace detail

/// The submitter's view of one job. Cheap to copy; all copies observe the
/// same job. A default-constructed handle is empty (valid() == false) and
/// every other accessor throws std::logic_error on it.
class JobHandle {
 public:
  JobHandle() = default;

  [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }

  /// Monotonic per-pool id, in submission order.
  [[nodiscard]] std::uint64_t id() const;

  /// The tag the request was submitted with.
  [[nodiscard]] const std::string& tag() const;

  /// Current status; a terminal answer is final, a non-terminal one may
  /// be stale by the time the caller acts on it.
  [[nodiscard]] JobStatus status() const;

  [[nodiscard]] bool terminal() const { return is_terminal(status()); }

  /// Cancels a queued job immediately; asks a running job to stop at its
  /// next cancellation poll (anytime solvers return their incumbent).
  /// No-op on a terminal job.
  void cancel() const;

  /// Blocks until terminal; the reference stays valid for the life of the
  /// handle's shared state.
  [[nodiscard]] const JobOutcome& wait() const;

  /// Waits up to `seconds`; true when the job is terminal.
  [[nodiscard]] bool wait_for(double seconds) const;

 private:
  friend class SolverPool;
  explicit JobHandle(std::shared_ptr<detail::JobState> state)
      : state_(std::move(state)) {}

  [[nodiscard]] detail::JobState& checked() const;

  std::shared_ptr<detail::JobState> state_;
};

}  // namespace dts
