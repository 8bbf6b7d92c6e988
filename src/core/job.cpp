#include "core/job.hpp"

#include <stdexcept>
#include <utility>

namespace dts {

std::string_view to_string(JobStatus status) noexcept {
  switch (status) {
    case JobStatus::kQueued: return "queued";
    case JobStatus::kRunning: return "running";
    case JobStatus::kDone: return "done";
    case JobStatus::kCancelled: return "cancelled";
    case JobStatus::kFailed: return "failed";
  }
  return "?";
}

namespace detail {

JobState::JobState(std::uint64_t id, JobRequest request,
                   std::shared_ptr<JobCounters> counters)
    : id_(id), request_(std::move(request)), counters_(std::move(counters)) {}

void JobState::arm_deadline(std::chrono::steady_clock::time_point now) {
  if (!request_.deadline_seconds) return;
  deadline_ = deadline_after(now, *request_.deadline_seconds);
}

JobStatus JobState::status() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return status_;
}

void JobState::cancel(std::string reason) {
  std::function<void()> hook;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (status_ == JobStatus::kQueued) {
      JobOutcome outcome;
      outcome.status = JobStatus::kCancelled;
      outcome.error = std::move(reason);
      finish_locked(std::move(outcome));
      hook = std::move(terminal_hook_);  // fire once, below, unlocked
    }
  }
  if (hook) {
    hook();
    return;
  }
  // Running: fire the cooperative token (the worker publishes the
  // terminal outcome). Terminal: nothing to do. Either way the token is
  // safe to fire again.
  token_.cancel();
}

const JobOutcome& JobState::wait() const {
  std::unique_lock<std::mutex> lock(mutex_);
  terminal_cv_.wait(lock, [this] { return is_terminal(status_); });
  return outcome_;
}

bool JobState::wait_for(double seconds) const {
  std::unique_lock<std::mutex> lock(mutex_);
  return terminal_cv_.wait_for(
      lock, std::chrono::duration<double>(seconds),
      [this] { return is_terminal(status_); });
}

bool JobState::mark_running() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (status_ != JobStatus::kQueued) return false;
  status_ = JobStatus::kRunning;
  return true;
}

void JobState::finish(JobOutcome outcome) {
  std::function<void()> hook;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const bool first = !is_terminal(status_);
    finish_locked(std::move(outcome));
    if (first) hook = std::move(terminal_hook_);
  }
  if (hook) hook();
}

void JobState::finish_locked(JobOutcome&& outcome) {
  if (is_terminal(status_)) return;  // first terminal transition wins
  // The guard above and this flag must agree: a job reaches exactly one
  // terminal state, ever (the pool's whole lifecycle story rests on it).
  DTS_ENSURE(!audit_terminal_,
             "a job must reach exactly one terminal state");
  status_ = outcome.status;
  outcome_ = std::move(outcome);
  if (!is_terminal(status_)) {
    // A non-terminal outcome status is a programming error in the pool;
    // resolve to kFailed rather than wedging waiters forever.
    status_ = JobStatus::kFailed;
    outcome_.status = JobStatus::kFailed;
    outcome_.error = "internal: job finished with a non-terminal status";
  }
  if (counters_) {
    outcome_.sequence = counters_->terminal_sequence.fetch_add(1);
    switch (status_) {
      case JobStatus::kDone: counters_->done.fetch_add(1); break;
      case JobStatus::kCancelled: counters_->cancelled.fetch_add(1); break;
      default: counters_->failed.fetch_add(1); break;
    }
  }
  DTS_AUDIT_ONLY(audit_terminal_ = true;)
  DTS_ENSURE(is_terminal(status_),
             "finish must leave the job in a terminal state");
  terminal_cv_.notify_all();
  // The terminal hook is fired by the caller after releasing the mutex
  // (cancel()/finish() move it out exactly once).
}

}  // namespace detail

detail::JobState& JobHandle::checked() const {
  if (!state_) throw std::logic_error("JobHandle: empty handle");
  return *state_;
}

std::uint64_t JobHandle::id() const { return checked().id(); }

const std::string& JobHandle::tag() const { return checked().request().tag; }

JobStatus JobHandle::status() const { return checked().status(); }

void JobHandle::cancel() const {
  checked().cancel("cancelled through the job handle");
}

const JobOutcome& JobHandle::wait() const { return checked().wait(); }

bool JobHandle::wait_for(double seconds) const {
  return checked().wait_for(seconds);
}

}  // namespace dts
