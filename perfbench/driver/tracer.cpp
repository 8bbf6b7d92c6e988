#include "tracer.hpp"

#include "json.hpp"

namespace perfbench {
namespace {

/// The innermost open span of this thread (its index), or -1.
thread_local std::int64_t t_open_span = -1;

}  // namespace

Tracer::Tracer(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {}

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

Tracer::Scope Tracer::span(std::string name, std::uint64_t request,
                           bool record) {
  if (!enabled_ || !record) return Scope(nullptr, -1, -1);
  const double start = now_us();
  std::int64_t index = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    index = static_cast<std::int64_t>(spans_.size());
    spans_.push_back(SpanRecord{std::move(name), start, start, t_open_span,
                                request});
  }
  const std::int64_t saved = t_open_span;
  t_open_span = index;
  return Scope(this, index, saved);
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  const double end = tracer_->now_us();
  {
    const std::lock_guard<std::mutex> lock(tracer_->mutex_);
    tracer_->spans_[static_cast<std::size_t>(index_)].end_us = end;
  }
  t_open_span = saved_parent_;
}

void Tracer::write_json(std::ostream& out) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::vector<SpanRecord>& all = spans_;
  out << '[';
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    if (i > 0) out << ",\n";
    out << "{\"name\":" << json_string(s.name)
        << ",\"start_us\":" << json_number(s.start_us)
        << ",\"end_us\":" << json_number(s.end_us)
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request << '}';
  }
  out << ']';
}

}  // namespace perfbench
