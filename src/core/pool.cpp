#include "core/pool.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <utility>

#include "support/contract.hpp"

namespace dts {

using Clock = std::chrono::steady_clock;

namespace {

/// The crew size SolverPoolOptions::workers = 0 asks for: one worker per
/// hardware thread, clamped to [1, 64].
std::size_t hardware_workers() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw == 0 ? 1 : hw, 1, 64);
}

}  // namespace

SolverPool::SolverPool(const SolverPoolOptions& options) : options_(options) {
  if (options.queue_capacity == 0) {
    throw std::invalid_argument("SolverPool: queue_capacity must be >= 1");
  }
  const std::size_t n = options.workers ? options.workers : hardware_workers();
  workers_.reserve(n);
  try {
    for (std::size_t i = 0; i < n; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  } catch (...) {
    // std::thread creation can fail under thread-limit pressure; letting
    // the exception unwind with joinable workers alive would terminate
    // the process. Stop and join the ones that started, then surface it.
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      accepting_ = false;
      stopping_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& worker : workers_) worker.join();
    throw;
  }
}

SolverPool::~SolverPool() { shutdown(DrainMode::kCancel); }

void SolverPool::prune_resolved_locked() {
  // Jobs cancelled while queued are already terminal; their stale entries
  // must not hold queue-capacity slots against new submissions.
  std::erase_if(queue_, [](const QueuedJob& queued) {
    return is_terminal(queued.job->status());
  });
}

std::shared_ptr<detail::JobState> SolverPool::enqueue_locked(
    JobRequest request) {
  auto job = std::make_shared<detail::JobState>(next_id_++,
                                                std::move(request), counters_);
  job->arm_deadline(Clock::now());
  // Wake producers blocked on a full queue when this job resolves while
  // still queued (cancel before start) — its slot is reclaimable. Taking
  // mutex_ around the notify closes the lost-wakeup window against a
  // producer between evaluating the wait predicate and blocking (the
  // hook runs with no job mutex held, so pool->job lock ordering is
  // preserved). The hook outlives the pool only in the trivial sense
  // that terminal transitions cannot happen after shutdown joined the
  // workers and resolved every job.
  job->set_terminal_hook([this] {
    { const std::lock_guard<std::mutex> lock(mutex_); }
    not_full_cv_.notify_all();
  });
  queue_.push_back(QueuedJob{job, job->request().priority});
  peak_queued_ = std::max(peak_queued_, queue_.size());
  counters_->submitted.fetch_add(1);
  return job;
}

JobHandle SolverPool::submit(JobRequest request) {
  std::shared_ptr<detail::JobState> job;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    not_full_cv_.wait(lock, [this] {
      if (!accepting_) return true;
      if (queue_.size() >= options_.queue_capacity) prune_resolved_locked();
      return queue_.size() < options_.queue_capacity;
    });
    if (!accepting_) {
      throw std::runtime_error("SolverPool: submit after shutdown");
    }
    job = enqueue_locked(std::move(request));
  }
  work_cv_.notify_one();
  return JobHandle(job);
}

std::optional<JobHandle> SolverPool::try_submit(JobRequest request) {
  JobHandle handle;
  if (try_submit(std::move(request), handle) != SubmitStatus::kAccepted) {
    return std::nullopt;
  }
  return handle;
}

SubmitStatus SolverPool::try_submit(JobRequest request, JobHandle& out) {
  std::shared_ptr<detail::JobState> job;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!accepting_) return SubmitStatus::kShuttingDown;
    if (queue_.size() >= options_.queue_capacity) prune_resolved_locked();
    if (queue_.size() >= options_.queue_capacity) {
      return SubmitStatus::kQueueFull;
    }
    job = enqueue_locked(std::move(request));
  }
  work_cv_.notify_one();
  out = JobHandle(job);
  return SubmitStatus::kAccepted;
}

std::shared_ptr<detail::JobState> SolverPool::pop_job_locked() {
  auto it = queue_.begin();
  if (options_.policy == SolverPoolOptions::Policy::kPriority) {
    // Highest priority, ties in submission order. Linear scan: queues are
    // bounded and modest, and a scan keeps FIFO tie-breaking trivial.
    for (auto cand = std::next(it); cand != queue_.end(); ++cand) {
      if (cand->priority > it->priority) it = cand;
    }
  }
  std::shared_ptr<detail::JobState> job = std::move(it->job);
  queue_.erase(it);
  return job;
}

void SolverPool::worker_loop() {
  while (true) {
    std::function<void()> subtask;
    std::shared_ptr<detail::JobState> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this] {
        return stopping_ || !subtasks_.empty() || !queue_.empty();
      });
      if (!subtasks_.empty()) {
        // Fan-out helpers run first: a blocked for_each caller may be a
        // worker holding a job slot, so clearing helpers bounds latency.
        subtask = std::move(subtasks_.front());
        subtasks_.pop_front();
      } else if (!queue_.empty()) {
        job = pop_job_locked();
        running_.push_back(job);
        not_full_cv_.notify_one();
      } else {
        return;  // stopping_ and nothing left to do
      }
    }
    if (subtask) {
      subtask();
      continue;
    }
    run_job(job);
    const std::lock_guard<std::mutex> lock(mutex_);
    running_.erase(std::find(running_.begin(), running_.end(), job));
  }
}

void SolverPool::run_job(const std::shared_ptr<detail::JobState>& job) {
  const Clock::time_point now = Clock::now();
  if (job->deadline() && now >= *job->deadline()) {
    job->cancel("deadline expired before the job started");
    return;
  }
  if (!job->mark_running()) return;  // resolved while queued; stale entry

  const JobRequest& request = job->request();
  SolveOptions options = request.options;
  options.cancel = job->token();
  if (!options.executor) {
    // Route solver-internal fan-out (auto candidates, window and
    // exhaustive enumeration) through this crew instead of letting each
    // job start a pool of its own: N running jobs x hardware threads
    // would oversubscribe the machine the pool is supposed to manage.
    // Results are identical either way; an explicitly set executor is
    // respected.
    options.executor = this;
  }
  if (job->deadline()) {
    const double remaining =
        std::chrono::duration<double>(*job->deadline() - now).count();
    options.time_limit_seconds =
        options.time_limit_seconds
            ? std::min(*options.time_limit_seconds, remaining)
            : remaining;
  }

  JobOutcome outcome;
  try {
    outcome.result = solve(request.request, request.solver, options);
    outcome.has_result = true;
    if (outcome.result.cancelled) {
      outcome.status = JobStatus::kCancelled;
      outcome.error = "stopped at the deadline or by cancellation; "
                      "best-so-far result attached";
    } else {
      outcome.status = JobStatus::kDone;
    }
  } catch (const std::exception& e) {
    outcome.status = JobStatus::kFailed;
    outcome.error = e.what();
  } catch (...) {
    // A registered solver may throw anything; escaping the worker would
    // std::terminate the whole service and strand the job non-terminal.
    outcome.status = JobStatus::kFailed;
    outcome.error = "solver threw a non-std::exception object";
  }
  job->finish(std::move(outcome));
}

void SolverPool::shutdown(DrainMode mode) {
  const std::lock_guard<std::mutex> shutdown_lock(shutdown_mutex_);
  if (joined_) return;
  std::vector<std::shared_ptr<detail::JobState>> to_cancel;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    accepting_ = false;
    if (mode == DrainMode::kCancel) {
      for (QueuedJob& queued : queue_) to_cancel.push_back(std::move(queued.job));
      queue_.clear();
      for (const auto& job : running_) to_cancel.push_back(job);
    }
    stopping_ = true;
  }
  work_cv_.notify_all();
  not_full_cv_.notify_all();
  for (const auto& job : to_cancel) {
    job->cancel("pool shut down before the job finished");
  }
  for (std::thread& worker : workers_) worker.join();
  // With every worker joined no thread mutates pool state: a drain must
  // have run the whole queue, a cancel resolved it, and either way no job
  // may still be marked running (each is popped off running_ by the
  // worker that resolved it).
  DTS_ENSURE(queue_.empty(), "shutdown must leave no queued job behind");
  DTS_ENSURE(running_.empty(), "shutdown must leave no job marked running");
  DTS_AUDIT_ONLY({
    const std::uint64_t resolved = counters_->done.load() +
                                   counters_->cancelled.load() +
                                   counters_->failed.load();
    DTS_AUDIT(resolved == counters_->submitted.load(),
              "shutdown must resolve every submitted job to exactly one "
              "terminal state");
  });
  joined_ = true;
}

void SolverPool::for_each(std::size_t n,
                          const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (n == 1 || worker_count() <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  struct Context {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> completed{0};
    std::size_t total = 0;
    const std::function<void(std::size_t)>* fn = nullptr;
    std::mutex mutex;
    std::condition_variable all_done;
    std::exception_ptr error;  // first throw from fn, under mutex
  };
  auto ctx = std::make_shared<Context>();
  ctx->total = n;
  ctx->fn = &fn;

  // A helper drains iterations until none remain. Exceptions from fn are
  // captured (first one wins) and rethrown to the for_each caller after
  // every iteration finished: a throw on a worker thread must not
  // std::terminate the crew, and an early caller-side unwind would leave
  // helpers touching state the caller is destroying. Helpers that a
  // worker picks up only after the loop completed see next >= total
  // immediately and never touch `fn`, so the reference staying on the
  // caller's stack is safe.
  const auto helper = [ctx] {
    while (true) {
      const std::size_t i = ctx->next.fetch_add(1);
      if (i >= ctx->total) return;
      try {
        (*ctx->fn)(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(ctx->mutex);
        if (!ctx->error) ctx->error = std::current_exception();
      }
      if (ctx->completed.fetch_add(1) + 1 == ctx->total) {
        const std::lock_guard<std::mutex> lock(ctx->mutex);
        ctx->all_done.notify_all();
      }
    }
  };

  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!stopping_) {
      const std::size_t helpers = std::min(worker_count(), n - 1);
      for (std::size_t i = 0; i < helpers; ++i) subtasks_.push_back(helper);
    }
  }
  work_cv_.notify_all();

  helper();  // the calling thread participates — no deadlock from jobs
  std::unique_lock<std::mutex> lock(ctx->mutex);
  ctx->all_done.wait(lock,
                     [&] { return ctx->completed.load() >= ctx->total; });
  if (ctx->error) std::rethrow_exception(ctx->error);
}

SolverPool::Stats SolverPool::stats() const {
  Stats stats;
  stats.submitted = counters_->submitted.load();
  stats.done = counters_->done.load();
  stats.cancelled = counters_->cancelled.load();
  stats.failed = counters_->failed.load();
  const std::lock_guard<std::mutex> lock(mutex_);
  // Entries whose job already resolved (cancelled while queued) are dead
  // weight awaiting a prune/pop; they are not backlog.
  stats.queued = static_cast<std::size_t>(
      std::count_if(queue_.begin(), queue_.end(), [](const QueuedJob& q) {
        return !is_terminal(q.job->status());
      }));
  stats.peak_queued = peak_queued_;
  DTS_AUDIT(stats.done + stats.cancelled + stats.failed <= stats.submitted,
            "more terminal transitions than submissions — a job resolved "
            "twice");
  return stats;
}

std::vector<JobOutcome> solve_all(SolverPool& pool,
                                  std::vector<JobRequest> requests) {
  std::vector<JobHandle> handles;
  handles.reserve(requests.size());
  for (JobRequest& request : requests) {
    handles.push_back(pool.submit(std::move(request)));
  }
  std::vector<JobOutcome> outcomes;
  outcomes.reserve(handles.size());
  for (const JobHandle& handle : handles) outcomes.push_back(handle.wait());
  return outcomes;
}

}  // namespace dts
