#pragma once

/// \file tracer.hpp
/// In-memory span recorder for the benchmark's traced run.
///
/// A span covers one call the benchmark makes into a layer of the
/// library (or one request round trip): its name, start and end on the
/// steady clock, the span that was open on the same thread when it began
/// (its parent) and the request it belongs to. Spans stay in memory and
/// are written out as JSON once the run ends; self time and per-name
/// aggregation happen in perfbench/benchstats.py.
///
/// A disabled tracer, or a span opened with record = false, records
/// nothing and costs one branch per scope, so untraced requests run
/// through the same code.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string name;
  double start_us = 0.0;  ///< Since the tracer's epoch.
  double end_us = 0.0;
  std::int64_t parent = -1;  ///< Index into the span list; -1 = root.
  std::uint64_t request = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// RAII span: opened by Tracer::span, closed by the destructor. Nests
  /// per thread, so a span opened while another is open on the same
  /// thread becomes its child.
  class Scope {
   public:
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    friend class Tracer;
    Scope(Tracer* tracer, std::int64_t index, std::int64_t saved_parent)
        : tracer_(tracer), index_(index), saved_parent_(saved_parent) {}

    Tracer* tracer_;  ///< Null when the span records nothing.
    std::int64_t index_;
    std::int64_t saved_parent_;
  };

  /// Opens a span; records nothing when the tracer is disabled or
  /// `record` is false.
  [[nodiscard]] Scope span(std::string name, std::uint64_t request,
                           bool record = true);

  /// Writes every span recorded so far as a JSON array.
  void write_json(std::ostream& out) const;

 private:
  [[nodiscard]] double now_us() const;

  const bool enabled_;
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;  ///< Guarded by mutex_.
};

}  // namespace perfbench
