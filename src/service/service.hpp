#pragma once

/// \file service.hpp
/// SolverService — the long-running serving front-end over SolverPool.
///
/// One request flows through the staged pipeline
///
///     parse -> canonicalize -> cache-probe -> solve -> re-cost
///
/// with three cross-cutting mechanisms:
///
///  * Admission control. At most `max_inflight` requests occupy the
///    pipeline at once; excess load gets an explicit `shed` response
///    (reason "admission") instead of unbounded queueing. A request that
///    passes admission but finds the solver pool's bounded queue full is
///    shed with reason "queue-full". Shed responses are back-pressure:
///    the client retries later. A draining service answers `draining`:
///    the client goes away.
///
///  * Result cache. Solved orders are cached under the canonical-instance
///    fingerprint (service/fingerprint.hpp) x a digest of every
///    result-affecting knob, and re-costed per request at response time —
///    warm responses are bitwise identical to cold ones (see
///    result_cache.hpp for how that is guaranteed unconditionally).
///
///  * Single-flight coalescing. Identical requests that arrive while the
///    first one is still solving do not queue duplicate solves: followers
///    park on the leader's in-flight entry and are answered from its
///    published result, counted `coalesced`. Every request that consults
///    the cache resolves as exactly one of hit / miss / coalesced, so the
///    counters reconcile: hits + misses + coalesced == consulting
///    requests.
///
/// The service is thread-safe: `handle()` may be called concurrently from
/// any number of connection threads (tests/service_soak_test.cpp runs it
/// under TSan). `drain()` stops admission, waits for the pipeline to
/// empty, and drains the pool — in-flight requests complete normally.

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/pool.hpp"
#include "core/schedule.hpp"
#include "service/protocol.hpp"
#include "service/result_cache.hpp"

namespace dts {

struct ServiceOptions {
  /// Worker threads of the underlying SolverPool (0 = hardware).
  std::size_t workers = 0;
  /// Bounded solve queue; a full queue sheds with reason "queue-full".
  std::size_t queue_capacity = 64;
  /// Result-cache entries (0 disables caching).
  std::size_t cache_capacity = 4096;
  /// Pipeline occupancy bound; excess sheds with reason "admission".
  std::size_t max_inflight = 256;
  /// Solver used when a request names none.
  std::string default_solver = "auto";
  /// Test hook: invoked by a single-flight leader after it registered the
  /// flight, immediately before submitting the solve. Lets tests hold a
  /// leader in place while followers pile up. Must be thread-safe.
  std::function<void()> on_solve_start;
  /// Test hook: invoked on the hit and coalesced paths immediately before
  /// the cached order is re-costed onto the request; a throw stands in
  /// for a failed re-cost. Must be thread-safe.
  std::function<void()> on_cache_replay;
};

/// A parsed, typed request (the wire adapter builds one from a frame).
struct ServiceRequest {
  std::string id = "-";
  Instance instance;
  std::string solver;  ///< Empty = ServiceOptions::default_solver.
  /// Exactly one of the two must be set.
  std::optional<Mem> capacity;
  std::optional<double> capacity_factor;  ///< Multiple of min_capacity.
  std::string machine;  ///< Empty = none (instance must be time-bound).
  std::optional<std::uint64_t> seed;
  std::optional<std::size_t> batch;
  bool no_cache = false;  ///< Bypass cache and single-flight entirely.
};

/// A typed response; serve.cpp renders it to the wire. Reuses the wire
/// vocabulary for status and cache outcome so the two layers cannot
/// drift.
struct ServiceResponse {
  WireResponse::Status status = WireResponse::Status::kOk;
  WireResponse::CacheOutcome cache = WireResponse::CacheOutcome::kMiss;
  std::string id;
  std::string winner;
  Time makespan = 0.0;
  std::uint64_t evaluations = 0;
  /// Optimality certificate (SolveResult::proved_optimal / lower_bound);
  /// warm hits replay the original solve's certificate verbatim.
  bool proved_optimal = false;
  Time lower_bound = 0.0;
  std::vector<TaskId> order;        ///< Winning comm order, request ids.
  std::vector<TaskTimes> schedule;  ///< Start times indexed by task id.
  std::string shed_reason;          ///< "admission" or "queue-full".
  std::string error;
};

/// Cumulative service counters (all monotonic except cache_size).
struct ServiceCounters {
  std::uint64_t received = 0;
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  std::uint64_t draining = 0;
  std::uint64_t errors = 0;
  /// Response cache outcomes (subsets of `ok`).
  std::uint64_t ok_hit = 0;
  std::uint64_t ok_miss = 0;
  std::uint64_t ok_coalesced = 0;
  std::uint64_t ok_bypass = 0;
  ResultCache::Counters cache;
  std::size_t cache_size = 0;
};

class SolverService {
 public:
  explicit SolverService(ServiceOptions options = {});
  ~SolverService();

  SolverService(const SolverService&) = delete;
  SolverService& operator=(const SolverService&) = delete;

  /// Serves one request start to finish (blocking: a cache miss waits for
  /// its solve). Never throws on bad requests — every failure mode is a
  /// response status. Thread-safe.
  [[nodiscard]] ServiceResponse handle(const ServiceRequest& request);

  /// Wire adapter: parses the frame's trace payload and verb, serves it,
  /// renders the response. Trace/validation failures become kError
  /// responses. Stats and ping verbs are answered inline; a quit verb is
  /// answered `ok` (connection teardown is the pump's job, see serve.hpp).
  [[nodiscard]] WireResponse handle_wire(const WireRequest& request);

  /// Stops admission (subsequent requests answer `draining`), waits for
  /// every in-flight request to finish, then drains the pool. Idempotent;
  /// concurrent callers block until the first drain completed.
  void drain();

  [[nodiscard]] bool draining() const;
  [[nodiscard]] ServiceCounters counters() const;

 private:
  /// One in-flight solve that followers coalesce onto.
  struct Flight {
    std::mutex m;
    std::condition_variable cv;
    bool done = false;
    /// Terminal state of the leader, mirrored to followers.
    WireResponse::Status status = WireResponse::Status::kOk;
    std::string shed_reason;
    std::string error;
    CachedResult result;  ///< Valid when status == kOk.
  };

  struct PipelineGuard;  ///< RAII in-flight counting for drain().

  [[nodiscard]] ServiceResponse serve_admitted(const ServiceRequest& request);
  /// Runs one solve on the pool; fills either `out` (returning true) or
  /// the shed/draining/error fields of `response` (returning false).
  bool run_solve(const ServiceRequest& request, const Instance& bound,
                 Mem capacity, const std::string& solver, SolveResult& out,
                 ServiceResponse& response);
  void count_response(const ServiceResponse& response);

  const ServiceOptions options_;
  SolverPool pool_;
  ResultCache cache_;

  mutable std::mutex flights_mutex_;
  std::map<CacheKey, std::shared_ptr<Flight>> flights_;

  mutable std::mutex state_mutex_;
  std::condition_variable idle_cv_;  ///< Signalled when inflight_ drops.
  std::size_t inflight_ = 0;
  bool draining_ = false;
  bool drained_ = false;  ///< Pool drain completed.
  ServiceCounters counters_;
};

}  // namespace dts
