#include "service/service.hpp"

#include <exception>
#include <string>
#include <utility>

#include "core/simulate.hpp"
#include "core/solver.hpp"
#include "model/machine.hpp"
#include "trace/trace_io.hpp"

namespace dts {
namespace {

ServiceResponse error_response(const std::string& id,
                               const std::string& message) {
  ServiceResponse r;
  r.status = WireResponse::Status::kError;
  r.id = id;
  r.error = message;
  return r;
}

ServiceResponse shed_response(const std::string& id,
                              const std::string& reason) {
  ServiceResponse r;
  r.status = WireResponse::Status::kShed;
  r.id = id;
  r.shed_reason = reason;
  return r;
}

ServiceResponse draining_response(const std::string& id) {
  ServiceResponse r;
  r.status = WireResponse::Status::kDraining;
  r.id = id;
  return r;
}

/// Response straight from a solver result (miss and bypass paths).
ServiceResponse cold_response(const std::string& id, const SolveResult& result,
                              WireResponse::CacheOutcome outcome) {
  ServiceResponse r;
  r.id = id;
  r.cache = outcome;
  r.winner = result.winner;
  r.makespan = result.makespan;
  r.evaluations = result.evaluations;
  r.proved_optimal = result.proved_optimal;
  r.lower_bound = result.lower_bound;
  r.order = result.schedule.comm_order();
  r.schedule = result.schedule.times();
  return r;
}

/// Response from a cached canonical order, re-costed onto this request's
/// bound instance (hit and coalesced paths). Bitwise identical to the
/// cold response of an equivalent fresh solve: the insert path verified
/// replay fidelity or stored the schedule verbatim (result_cache.hpp).
ServiceResponse warm_response(const std::string& id, const CachedResult& cached,
                              const CanonicalInstance& canon,
                              const Instance& bound, Mem capacity,
                              WireResponse::CacheOutcome outcome) {
  ServiceResponse r;
  r.id = id;
  r.cache = outcome;
  r.winner = cached.winner;
  r.makespan = cached.makespan;
  r.evaluations = cached.evaluations;
  r.proved_optimal = cached.proved_optimal;
  r.lower_bound = cached.lower_bound;
  r.order = canon.to_request_order(cached.canonical_order);
  if (cached.canonical_schedule) {
    r.schedule.resize(cached.canonical_schedule->size());
    for (TaskId slot = 0; slot < r.schedule.size(); ++slot) {
      r.schedule[canon.request_id(slot)] = (*cached.canonical_schedule)[slot];
    }
  } else {
    r.schedule = simulate_order(bound, r.order, capacity).times();
  }
  return r;
}

/// The cacheable artifact of a fresh solve: the winning comm order in
/// canonical slot space, with a stored-schedule fallback when replaying
/// the order does not reproduce the solver's schedule bit-for-bit.
CachedResult build_cached(const SolveResult& result,
                          const CanonicalInstance& canon,
                          const Instance& bound, Mem capacity) {
  CachedResult c;
  c.winner = result.winner;
  c.makespan = result.makespan;
  c.evaluations = result.evaluations;
  c.proved_optimal = result.proved_optimal;
  c.lower_bound = result.lower_bound;
  const std::vector<TaskId> order = result.schedule.comm_order();
  c.canonical_order = canon.to_canonical_order(order);
  const Schedule replay = simulate_order(bound, order, capacity);
  bool reproduced = replay.size() == result.schedule.size();
  for (TaskId id = 0; reproduced && id < replay.size(); ++id) {
    reproduced = replay[id].comm_start == result.schedule[id].comm_start &&
                 replay[id].comp_start == result.schedule[id].comp_start;
  }
  if (!reproduced) {
    c.canonical_schedule.emplace(result.schedule.size());
    for (TaskId id = 0; id < result.schedule.size(); ++id) {
      (*c.canonical_schedule)[canon.canonical_slot(id)] = result.schedule[id];
    }
  }
  return c;
}

}  // namespace

/// Counts one request's occupancy of the pipeline for drain().
struct SolverService::PipelineGuard {
  SolverService& service;

  explicit PipelineGuard(SolverService& s) : service(s) {}
  ~PipelineGuard() {
    const std::lock_guard<std::mutex> lock(service.state_mutex_);
    --service.inflight_;
    service.idle_cv_.notify_all();
  }

  PipelineGuard(const PipelineGuard&) = delete;
  PipelineGuard& operator=(const PipelineGuard&) = delete;
};

SolverService::SolverService(ServiceOptions options)
    : options_(std::move(options)),
      pool_(SolverPoolOptions{.workers = options_.workers,
                              .queue_capacity = options_.queue_capacity,
                              .policy = SolverPoolOptions::Policy::kFifo}),
      cache_(options_.cache_capacity) {}

SolverService::~SolverService() { drain(); }

ServiceResponse SolverService::handle(const ServiceRequest& request) {
  ServiceResponse response;
  bool admitted = false;
  {
    const std::lock_guard<std::mutex> lock(state_mutex_);
    ++counters_.received;
    if (draining_) {
      response = draining_response(request.id);
    } else if (inflight_ >= options_.max_inflight) {
      response = shed_response(request.id, "admission");
    } else {
      ++inflight_;
      admitted = true;
    }
  }
  if (admitted) {
    const PipelineGuard guard(*this);
    try {
      response = serve_admitted(request);
    } catch (const std::exception& e) {
      response = error_response(request.id, e.what());
    } catch (...) {
      response = error_response(request.id,
                                "request failed with a non-standard exception");
    }
  }
  count_response(response);
  return response;
}

ServiceResponse SolverService::serve_admitted(const ServiceRequest& request) {
  if (request.capacity.has_value() == request.capacity_factor.has_value()) {
    return error_response(
        request.id, "exactly one of capacity / capacity-factor is required");
  }

  // parse -> canonicalize: bind the machine eagerly so binding errors are
  // error responses and every later stage works on costed tasks.
  Instance bound;
  try {
    if (!request.machine.empty()) {
      bound = bind(request.instance, machine_from_name(request.machine));
    } else if (!request.instance.fully_bound()) {
      return error_response(request.id,
                            "trace carries time-less (bytes-only) tasks; "
                            "a machine is required to cost them");
    } else {
      bound = request.instance;
    }
  } catch (const std::exception& e) {
    return error_response(request.id, e.what());
  }

  const Mem capacity = request.capacity
                           ? *request.capacity
                           : *request.capacity_factor * bound.min_capacity();
  const std::string solver =
      request.solver.empty() ? options_.default_solver : request.solver;

  if (request.no_cache) {
    ServiceResponse response;
    response.id = request.id;
    SolveResult result;
    if (!run_solve(request, bound, capacity, solver, result, response)) {
      return response;
    }
    return cold_response(request.id, result,
                         WireResponse::CacheOutcome::kBypass);
  }

  // The fingerprint hashes the *as-submitted* instance (a bytes-only
  // trace fingerprints machine-independently); the machine joins the
  // digest, so one canonical workload has one entry per target machine.
  const CanonicalInstance canon(request.instance);
  const SolveOptions defaults;
  const CacheKey key{
      canon.fingerprint(),
      request_digest(RequestDigestInputs{
          .capacity = capacity,
          .solver = solver,
          .machine = request.machine,
          .seed = request.seed.value_or(defaults.seed),
          .max_iterations = defaults.max_iterations,
          .max_no_improve = defaults.max_no_improve,
          .batch_size = request.batch ? static_cast<std::uint64_t>(
                                            *request.batch)
                                      : ~0ULL})};

  // cache-probe + single-flight registration, atomically with respect to
  // other probes: every request resolves as exactly one of follower
  // (coalesced), hit, or leader (miss — counted by the lookup).
  std::shared_ptr<Flight> flight;
  std::optional<CachedResult> cached;
  bool leader = false;
  {
    const std::lock_guard<std::mutex> lock(flights_mutex_);
    const auto it = flights_.find(key);
    if (it != flights_.end()) {
      flight = it->second;
    } else {
      cached = cache_.lookup(key);
      if (!cached) {
        flight = std::make_shared<Flight>();
        flights_.emplace(key, flight);
        leader = true;
      }
    }
  }

  // Hit and coalesced answers re-cost a cached order. The cache counters
  // have already recorded the outcome, so a failure to re-cost still
  // reports that outcome rather than the default miss.
  const auto replay = [&](const CachedResult& result,
                          WireResponse::CacheOutcome outcome) {
    try {
      if (options_.on_cache_replay) options_.on_cache_replay();
      return warm_response(request.id, result, canon, bound, capacity,
                           outcome);
    } catch (const std::exception& e) {
      ServiceResponse failed = error_response(request.id, e.what());
      failed.cache = outcome;
      return failed;
    }
  };

  if (cached) return replay(*cached, WireResponse::CacheOutcome::kHit);

  if (!leader) {
    cache_.note_coalesced();
    std::unique_lock<std::mutex> fl(flight->m);
    flight->cv.wait(fl, [&] { return flight->done; });
    switch (flight->status) {
      case WireResponse::Status::kOk:
        return replay(flight->result, WireResponse::CacheOutcome::kCoalesced);
      case WireResponse::Status::kShed:
        return shed_response(request.id, flight->shed_reason);
      case WireResponse::Status::kDraining:
        return draining_response(request.id);
      case WireResponse::Status::kError:
        return error_response(request.id, flight->error);
    }
    return error_response(request.id, "leader vanished");
  }

  // Leader: solve, publish to followers, insert into the cache. The cache
  // insert happens before the flight is retired so a racing probe finds
  // either the flight or the entry — never a gap that duplicates work.
  // Retirement must happen on EVERY exit path — a leader that unwinds
  // without retiring would park its followers forever and leave every
  // future identical request coalescing onto a dead flight.
  const auto retire = [&]() noexcept {
    {
      const std::lock_guard<std::mutex> lock(flights_mutex_);
      flights_.erase(key);
    }
    {
      const std::lock_guard<std::mutex> fl(flight->m);
      flight->done = true;
    }
    flight->cv.notify_all();
  };
  ServiceResponse response;
  response.id = request.id;
  try {
    if (options_.on_solve_start) options_.on_solve_start();
    SolveResult result;
    if (run_solve(request, bound, capacity, solver, result, response)) {
      flight->result = build_cached(result, canon, bound, capacity);
      flight->status = WireResponse::Status::kOk;
      cache_.insert(key, flight->result);
      response = cold_response(request.id, result,
                               WireResponse::CacheOutcome::kMiss);
    } else {
      flight->status = response.status;
      flight->shed_reason = response.shed_reason;
      flight->error = response.error;
    }
  } catch (const std::exception& e) {
    flight->status = WireResponse::Status::kError;
    flight->error = e.what();
    retire();
    throw;  // handle() renders the leader's own error response
  } catch (...) {
    flight->status = WireResponse::Status::kError;
    flight->error = "leader failed with a non-standard exception";
    retire();
    throw;
  }
  retire();
  return response;
}

bool SolverService::run_solve(const ServiceRequest& request,
                              const Instance& bound, Mem capacity,
                              const std::string& solver, SolveResult& out,
                              ServiceResponse& response) {
  JobRequest job;
  job.request.instance = bound;
  job.request.capacity = capacity;
  if (request.batch) job.request.batch_size = *request.batch;
  job.solver = solver;
  job.options.seed = request.seed.value_or(SolveOptions{}.seed);
  job.options.compute_bounds = false;
  job.tag = request.id;

  JobHandle handle;
  switch (pool_.try_submit(std::move(job), handle)) {
    case SubmitStatus::kQueueFull:
      response = shed_response(request.id, "queue-full");
      return false;
    case SubmitStatus::kShuttingDown:
      response = draining_response(request.id);
      return false;
    case SubmitStatus::kAccepted:
      break;
  }
  const JobOutcome& outcome = handle.wait();
  if (outcome.status == JobStatus::kDone && outcome.has_result) {
    out = outcome.result;
    return true;
  }
  response = error_response(
      request.id, outcome.error.empty()
                      ? "solve ended " + std::string(to_string(outcome.status))
                      : outcome.error);
  return false;
}

void SolverService::count_response(const ServiceResponse& response) {
  const std::lock_guard<std::mutex> lock(state_mutex_);
  switch (response.status) {
    case WireResponse::Status::kOk:
      ++counters_.ok;
      switch (response.cache) {
        case WireResponse::CacheOutcome::kHit: ++counters_.ok_hit; break;
        case WireResponse::CacheOutcome::kMiss: ++counters_.ok_miss; break;
        case WireResponse::CacheOutcome::kCoalesced:
          ++counters_.ok_coalesced;
          break;
        case WireResponse::CacheOutcome::kBypass:
          ++counters_.ok_bypass;
          break;
      }
      break;
    case WireResponse::Status::kShed: ++counters_.shed; break;
    case WireResponse::Status::kDraining: ++counters_.draining; break;
    case WireResponse::Status::kError: ++counters_.errors; break;
  }
}

WireResponse SolverService::handle_wire(const WireRequest& request) {
  WireResponse wire;
  wire.id = request.id;
  switch (request.verb) {
    case WireRequest::Verb::kPing:
    case WireRequest::Verb::kQuit:
      wire.status = WireResponse::Status::kOk;
      return wire;
    case WireRequest::Verb::kStats: {
      const ServiceCounters c = counters();
      wire.extra = {
          "requests " + std::to_string(c.received),
          "ok " + std::to_string(c.ok),
          "shed " + std::to_string(c.shed),
          "draining " + std::to_string(c.draining),
          "errors " + std::to_string(c.errors),
          "hits " + std::to_string(c.cache.hits),
          "misses " + std::to_string(c.cache.misses),
          "coalesced " + std::to_string(c.cache.coalesced),
          "inserts " + std::to_string(c.cache.inserts),
          "evictions " + std::to_string(c.cache.evictions),
          "cache-size " + std::to_string(c.cache_size)};
      wire.status = WireResponse::Status::kOk;
      return wire;
    }
    case WireRequest::Verb::kSolve:
      break;
  }

  ServiceRequest typed;
  typed.id = request.id;
  try {
    typed.instance = read_trace(request.trace_text);
  } catch (const std::exception& e) {
    wire.status = WireResponse::Status::kError;
    wire.error = e.what();
    count_response(error_response(request.id, wire.error));
    {
      const std::lock_guard<std::mutex> lock(state_mutex_);
      ++counters_.received;
    }
    return wire;
  }
  typed.solver = request.solver;
  if (request.capacity) typed.capacity = *request.capacity;
  if (request.capacity_factor) typed.capacity_factor = *request.capacity_factor;
  typed.machine = request.machine;
  typed.seed = request.seed;
  if (request.batch) typed.batch = static_cast<std::size_t>(*request.batch);
  typed.no_cache = request.no_cache;

  const ServiceResponse response = handle(typed);
  wire.status = response.status;
  wire.cache = response.cache;
  wire.winner = response.winner;
  wire.makespan = response.makespan;
  wire.evaluations = response.evaluations;
  wire.proved_optimal = response.proved_optimal;
  wire.lower_bound = response.lower_bound;
  if (response.lower_bound > 0.0 && response.makespan != kInfiniteTime) {
    wire.gap = response.proved_optimal
                   ? 0.0
                   : (response.makespan - response.lower_bound) /
                         response.lower_bound;
  }
  wire.order.assign(response.order.begin(), response.order.end());
  wire.schedule.reserve(response.schedule.size());
  for (const TaskTimes& t : response.schedule) {
    wire.schedule.emplace_back(t.comm_start, t.comp_start);
  }
  wire.shed_reason = response.shed_reason;
  wire.error = response.error;
  return wire;
}

void SolverService::drain() {
  {
    std::unique_lock<std::mutex> lock(state_mutex_);
    draining_ = true;
    idle_cv_.wait(lock, [this] { return inflight_ == 0; });
  }
  pool_.shutdown(DrainMode::kDrain);
}

bool SolverService::draining() const {
  const std::lock_guard<std::mutex> lock(state_mutex_);
  return draining_;
}

ServiceCounters SolverService::counters() const {
  ServiceCounters out;
  {
    const std::lock_guard<std::mutex> lock(state_mutex_);
    out = counters_;
  }
  out.cache = cache_.counters();
  out.cache_size = cache_.size();
  return out;
}

}  // namespace dts
