#include "probes.hpp"

#include <chrono>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/compiled.hpp"
#include "core/pool.hpp"
#include "core/solver.hpp"
#include "exact/lower_bounds.hpp"
#include "milp/milp_solver.hpp"
#include "model/machine.hpp"
#include "service/fingerprint.hpp"
#include "service/protocol.hpp"
#include "service/service.hpp"
#include "trace/trace_io.hpp"
#include "trace/transforms.hpp"

namespace perfbench {
namespace {

constexpr const char* kFamilies[] = {"baseline", "static", "dynamic",
                                     "corrected"};

std::string frame_for(const RequestSpec& spec, std::uint64_t id,
                      const std::string& payload) {
  return frame_header(spec, id, 0, payload.size()) + payload + "end\n";
}

dts::WireResponse to_wire(const dts::ServiceResponse& r) {
  dts::WireResponse wire;
  wire.status = r.status;
  wire.id = r.id;
  wire.cache = r.cache;
  wire.winner = r.winner;
  wire.makespan = r.makespan;
  wire.evaluations = r.evaluations;
  wire.proved_optimal = r.proved_optimal;
  wire.lower_bound = r.lower_bound;
  if (r.lower_bound > 0.0 && r.makespan != dts::kInfiniteTime) {
    wire.gap = r.proved_optimal ? 0.0
                                : (r.makespan - r.lower_bound) / r.lower_bound;
  }
  wire.order.assign(r.order.begin(), r.order.end());
  for (const dts::TaskTimes& t : r.schedule) {
    wire.schedule.emplace_back(t.comm_start, t.comp_start);
  }
  wire.shed_reason = r.shed_reason;
  wire.error = r.error;
  return wire;
}

dts::ServiceRequest typed_request(const dts::WireRequest& wire,
                                  dts::Instance instance) {
  dts::ServiceRequest typed;
  typed.id = wire.id;
  typed.instance = std::move(instance);
  typed.solver = wire.solver;
  typed.capacity_factor = wire.capacity_factor;
  typed.machine = wire.machine;
  typed.seed = wire.seed;
  return typed;
}

dts::SolveRequest solve_request(const RequestSpec& spec) {
  dts::SolveRequest request;
  request.instance = build_instance(spec);
  request.capacity = spec.capacity_factor * request.instance.min_capacity();
  return request;
}

dts::SolveOptions serial_options() {
  dts::SolveOptions options;
  options.compute_bounds = false;
  options.parallel_candidates = false;
  return options;
}

/// Closed-loop SolverPool probe: `clients` threads each submit their
/// share of `jobs` one at a time and wait, as the socket clients do.
void probe_pool(const std::vector<dts::SolveRequest>& jobs,
                const std::vector<std::string>& solvers, std::size_t workers,
                std::size_t clients, Tracer& tracer, ProbeReport& report) {
  dts::SolverPool pool(dts::SolverPoolOptions{.workers = workers});
  std::mutex mutex;
  std::vector<double> waits(jobs.size(), 0.0);
  std::vector<std::uint64_t> evaluations(jobs.size(), 0);
  std::vector<std::string> errors;
  const auto client = [&](std::size_t c) {
    for (std::size_t j = c; j < jobs.size(); j += clients) {
      dts::JobRequest job;
      job.request = jobs[j];
      job.solver = solvers[j];
      job.options.compute_bounds = false;
      const auto scope = tracer.span("core.pool.job", j);
      const auto submitted = std::chrono::steady_clock::now();
      const dts::JobHandle handle = pool.submit(std::move(job));
      const dts::JobOutcome& outcome = handle.wait();
      const double total = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - submitted)
                               .count();
      if (outcome.status != dts::JobStatus::kDone || !outcome.has_result) {
        const std::lock_guard<std::mutex> lock(mutex);
        errors.push_back(outcome.error);
        continue;
      }
      waits[j] = 1e3 * (total - outcome.result.wall_seconds);
      evaluations[j] = outcome.result.evaluations;
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) threads.emplace_back(client, c);
  for (std::thread& t : threads) t.join();
  pool.shutdown();
  if (!errors.empty()) throw std::runtime_error("pool probe job failed: " + errors.front());
  auto& samples = report.samples["core.pool.queue_wait_ms"];
  samples.insert(samples.end(), waits.begin(), waits.end());
  for (const std::uint64_t e : evaluations) report.counters["core.solve.evaluations"] += e;
}

}  // namespace

void probe_request_path(const Workload& workload,
                        const std::vector<std::string>& payloads,
                        std::size_t requests, Tracer& tracer,
                        ProbeReport& report) {
  dts::ServiceOptions options;
  options.workers = workload.workers;
  dts::SolverService service(options);

  // serve-warm's set-up fill, untimed: the replay below must hit.
  for (std::size_t s = 0; s < workload.fill.size(); ++s) {
    const RequestSpec& spec = workload.fill[s];
    std::istringstream frame(frame_for(spec, s, render_payload(spec)));
    const auto wire = dts::read_request(frame);
    std::istringstream text(wire->trace_text);
    const dts::ServiceResponse r =
        service.handle(typed_request(*wire, dts::read_trace(text)));
    if (r.status != dts::WireResponse::Status::kOk) {
      throw std::runtime_error("in-process fill failed: " + r.error);
    }
  }
  const dts::ServiceCounters before = service.counters();

  auto& counters = report.counters;
  std::vector<dts::SolveRequest> pool_jobs;
  std::vector<std::string> pool_solvers;
  for (std::size_t k = 0; k < requests; ++k) {
    const std::size_t index = k % workload.pool.size();
    const RequestSpec& spec = workload.pool[index];
    const std::string frame_text = frame_for(spec, k, payloads.at(spec.payload));
    const auto root = tracer.span("bench.replay", k);

    std::optional<dts::WireRequest> wire;
    {
      const auto scope = tracer.span("service.protocol.read_request", k);
      std::istringstream frame(frame_text);
      wire = dts::read_request(frame);
    }
    if (!wire) throw std::runtime_error("replayed frame did not parse");
    counters["trace.payload_bytes"] += wire->trace_text.size();

    dts::Instance instance;
    {
      const auto scope = tracer.span("trace.read_trace", k);
      std::istringstream text(wire->trace_text);
      instance = dts::read_trace(text);
    }
    dts::Instance bound = instance;
    if (!wire->machine.empty()) {
      const auto scope = tracer.span("model.bind", k);
      bound = dts::bind(instance, dts::machine_from_name(wire->machine));
    }
    {
      const auto scope = tracer.span("service.fingerprint.canonicalize", k);
      const dts::CanonicalInstance canon(instance);
      const dts::Fingerprint fp = dts::fingerprint_of(instance);
      if (!(fp == canon.fingerprint())) {
        throw std::runtime_error("fingerprint_of disagrees with CanonicalInstance");
      }
    }
    {
      const auto scope = tracer.span("core.compile", k);
      const dts::CompiledInstance compiled(bound);
      if (compiled.size() != bound.size()) throw std::runtime_error("compile lost tasks");
    }
    dts::ServiceResponse response;
    {
      const auto scope = tracer.span("service.handle", k);
      response = service.handle(typed_request(*wire, instance));
    }
    if (response.status != dts::WireResponse::Status::kOk) {
      throw std::runtime_error("in-process request failed: " + response.error);
    }
    counters["core.solve.evaluations"] += response.evaluations;
    std::string rendered;
    {
      const auto scope = tracer.span("service.protocol.write_response", k);
      std::ostringstream out;
      dts::write_response(out, to_wire(response));
      rendered = out.str();
    }
    {
      const auto scope = tracer.span("service.protocol.read_response", k);
      std::istringstream in(rendered);
      if (!dts::read_response(in)) throw std::runtime_error("response did not parse");
    }
    if (pool_jobs.size() < 32) {
      dts::SolveRequest job;
      job.instance = bound;
      job.capacity = *wire->capacity_factor * bound.min_capacity();
      pool_jobs.push_back(std::move(job));
      pool_solvers.push_back(wire->solver);
    }
  }

  const dts::ServiceCounters after = service.counters();
  counters["service.cache.hits"] = after.cache.hits - before.cache.hits;
  counters["service.cache.misses"] = after.cache.misses - before.cache.misses;
  counters["service.cache.coalesced"] =
      after.cache.coalesced - before.cache.coalesced;
  counters["service.shed"] = after.shed - before.shed;
  counters["service.errors"] = after.errors - before.errors;
  service.drain();

  probe_pool(pool_jobs, pool_solvers, workload.workers, workload.connections,
             tracer, report);
}

void probe_solver_layers(const ProbeInputs& inputs, Tracer& tracer,
                         ProbeReport& report) {
  auto& counters = report.counters;
  const dts::SolveOptions options = serial_options();
  std::uint64_t id = 0;

  for (const RequestSpec& spec : inputs.cold) {
    const dts::SolveRequest request = solve_request(spec);
    {
      // Re-costing the bytes-only form, as a `machine` header makes the
      // service do on every request.
      const dts::Instance bytes_only = dts::strip_comm_times(request.instance);
      const dts::Machine machine = dts::machine_from_name(
          request.instance.num_channels() > 1 ? "duplex-pcie" : kBytesOnlyMachine);
      const auto scope = tracer.span("model.bind", id);
      if (dts::bind(bytes_only, machine).size() != bytes_only.size()) {
        throw std::runtime_error("bind lost tasks");
      }
    }
    for (const char* family : kFamilies) {
      const auto scope = tracer.span(std::string("heuristics.") + family, id);
      counters["core.solve.evaluations"] +=
          dts::solve(request, std::string("auto:") + family, options).evaluations;
    }
    ++id;
  }

  for (const RequestSpec& spec : inputs.scaling) {
    const dts::SolveRequest request = solve_request(spec);
    const std::string size = ".n" + std::to_string(spec.min_tasks);
    for (const char* family : kFamilies) {
      const auto scope =
          tracer.span(std::string("heuristics.") + family + size, id);
      counters["core.solve.evaluations"] +=
          dts::solve(request, std::string("auto:") + family, options).evaluations;
    }
    ++id;
  }

  for (const RequestSpec& spec : inputs.local_search) {
    const dts::SolveRequest request = solve_request(spec);
    dts::SolveResult result;
    {
      const auto scope = tracer.span("heuristics.local_search", id);
      result = dts::solve(request, "local-search", options);
    }
    counters["heuristics.local_search.evaluations"] += result.evaluations;
    counters["core.solve.evaluations"] += result.evaluations;

    // Adjacent-swap neighbourhood of the improved order, scored from
    // scratch and by prefix resume.
    const dts::CompiledInstance compiled(request.instance);
    const std::vector<dts::TaskId> order = result.schedule.comm_order();
    std::vector<dts::TaskId> candidate = order;
    {
      const auto scope = tracer.span("core.evaluate_order", id);
      dts::EvalScratch scratch;
      for (std::size_t i = 0; i + 1 < order.size(); ++i) {
        std::swap(candidate[i], candidate[i + 1]);
        (void)dts::evaluate_order(compiled, candidate, request.capacity, scratch);
        std::swap(candidate[i], candidate[i + 1]);
        ++counters["core.evaluate_order.evaluations"];
      }
    }
    {
      const auto scope = tracer.span("core.prefix_resume", id);
      dts::PrefixResumeEvaluator evaluator(compiled, request.capacity);
      (void)evaluator.set_reference(order);
      for (std::size_t i = 0; i + 1 < order.size(); ++i) {
        std::swap(candidate[i], candidate[i + 1]);
        (void)evaluator.evaluate(candidate);
        std::swap(candidate[i], candidate[i + 1]);
      }
      counters["core.prefix_resume.tasks_simulated"] += evaluator.tasks_simulated();
      counters["core.prefix_resume.tasks_resumed"] += evaluator.tasks_resumed();
    }
    ++id;
  }

  for (const RequestSpec& spec : inputs.branch_bound) {
    const dts::SolveRequest request = solve_request(spec);
    const auto scope = tracer.span("exact.branch_bound", id++);
    const dts::SolveResult result = dts::solve(request, "branch-bound", options);
    counters["exact.branch_bound.pairs"] += result.evaluations;
    counters["core.solve.evaluations"] += result.evaluations;
  }

  for (const RequestSpec& spec : inputs.milp) {
    const dts::SolveRequest request = solve_request(spec);
    dts::MilpOptions milp;
    milp.lower_bound =
        dts::capacity_aware_bounds(request.instance, request.capacity).combined;
    dts::MilpResult result;
    {
      const auto scope = tracer.span("milp.solve_order_milp", id++);
      result = dts::solve_order_milp(request.instance, request.capacity, milp);
    }
    counters["milp.nodes"] += result.nodes_explored;
    counters["milp.lp_pivots"] += result.lp_pivots;
    counters["milp.proved"] += result.proved_optimal ? 1 : 0;
    counters["milp.instances"] += 1;
  }
}

}  // namespace perfbench
