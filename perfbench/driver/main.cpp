/// dts_perfbench — the measuring half of the socket-to-response benchmark.
///
/// Starts `dts serve` on an AF_UNIX socket, drives it with closed-loop
/// clients (each sends its next request only after reading the previous
/// response) for the timed phase, checks every response against a direct
/// dts::solve() and validate_schedule() once the server has stopped, and
/// writes the raw measurements as JSON. perfbench/run.py turns them into
/// metrics.
///
///   dts_perfbench --dts=PATH --workload=NAME --seed=N --seconds=S
///                 --trace=0|1 --out=FILE [--socket=PATH]
///                 [--inject-infeasible]
///
/// --trace=0 sets up eight times, four before and four after one
/// untraced phase (setup_s is their median). --trace=1 sets up once,
/// alternates whole mix cycles between untraced and traced requests in
/// one phase (their p50 difference is the tracing overhead), then runs
/// the in-process layer probes with spans. --inject-infeasible makes the
/// pool's first request a known over-capacity case, to show that an
/// infeasible schedule is counted as failed, not fatal; the ids sent
/// with it are reported.

#include <algorithm>
#include <atomic>
#include <bit>
#include <csignal>
#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/johnson.hpp"
#include "core/solver.hpp"
#include "core/validate.hpp"
#include "json.hpp"
#include "probes.hpp"
#include "server.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string dts = "dts";
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;
  std::string socket = "perfbench.sock";
  bool inject_infeasible = false;
};

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--dts") {
      o.dts = value;
    } else if (key == "--workload") {
      o.workload = value;
    } else if (key == "--seed") {
      o.seed = std::stoull(value);
    } else if (key == "--seconds") {
      o.seconds = std::stod(value);
    } else if (key == "--trace") {
      o.trace = value == "1";
    } else if (key == "--out") {
      o.out = value;
    } else if (key == "--socket") {
      o.socket = value;
    } else if (key == "--inject-infeasible") {
      o.inject_infeasible = true;
    } else {
      throw std::invalid_argument("unknown argument: " + arg);
    }
  }
  if (o.workload.empty() || o.out.empty() || !(o.seconds > 0.0)) {
    throw std::invalid_argument(
        "usage: dts_perfbench --dts=PATH --workload=NAME --seed=N "
        "--seconds=S --trace=0|1 --out=FILE");
  }
  return o;
}

/// One request of a timed phase and its response.
struct Sent {
  std::uint64_t id = 0;
  std::size_t spec = 0;  ///< Index into Workload::pool.
  std::uint64_t epoch = 0;
  bool traced = false;  ///< Sent with client spans (the traced run's odd cycles).
  double latency_ms = 0.0;
  dts::WireResponse response;
};

struct Phase {
  double seconds = 0.0;
  std::vector<Sent> sent;
};

std::vector<std::string> render_payloads(const Workload& w) {
  std::vector<std::string> payloads;
  for (const RequestSpec& spec : w.pool) {
    if (spec.payload >= payloads.size()) payloads.resize(spec.payload + 1);
    if (payloads[spec.payload].empty()) payloads[spec.payload] = render_payload(spec);
  }
  return payloads;
}

dts::WireResponse round_trip(Connection& conn, const std::string& header,
                             const std::string& payload) {
  conn.send(header, payload, "end\n");
  std::optional<dts::WireResponse> response = conn.receive();
  if (!response) throw std::runtime_error("server closed the connection");
  return std::move(*response);
}

/// Set-up: render every payload, start the server and (serve-warm) fill
/// its cache. Returns the live server; `fill` receives the fill responses.
std::unique_ptr<ServerProcess> set_up(const Options& o, const Workload& w,
                                      std::vector<std::string>& payloads,
                                      std::vector<dts::WireResponse>& fill) {
  payloads = render_payloads(w);
  auto server = std::make_unique<ServerProcess>(o.dts, o.socket, w.workers);
  fill.clear();
  if (!w.fill.empty()) {
    Connection conn(o.socket);
    for (std::size_t s = 0; s < w.fill.size(); ++s) {
      const std::string payload = render_payload(w.fill[s]);
      fill.push_back(round_trip(
          conn, frame_header(w.fill[s], s, 0, payload.size()), payload));
    }
  }
  return server;
}

/// One timed phase: `connections` closed-loop clients. Connection c sends
/// requests c, c + C, ... and stops at a mix-cycle boundary once `seconds`
/// have passed. With `interleave`, whole mix cycles alternate between
/// untraced and traced, so both latency sets cover the same request mix
/// under the same host conditions.
Phase run_phase(const Options& o, const Workload& w,
                const std::vector<std::string>& payloads, double seconds,
                Tracer& tracer, bool interleave) {
  const std::size_t clients = w.connections;
  std::vector<std::unique_ptr<Connection>> connections;
  for (std::size_t c = 0; c < clients; ++c) {
    connections.push_back(std::make_unique<Connection>(o.socket));
  }
  std::vector<std::vector<Sent>> per_client(clients);
  std::vector<std::string> errors(clients);
  const std::size_t stop_every = interleave ? 2 * w.cycle : w.cycle;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));

  const auto client = [&](std::size_t c) {
    Connection& conn = *connections[c];
    try {
      for (std::uint64_t k = 0;; ++k) {
        if (k % stop_every == 0 && Clock::now() >= deadline) break;
        Sent s;
        s.id = c + k * clients;
        s.spec = s.id % w.pool.size();
        s.epoch = w.epoch_seeds ? s.id / w.pool.size() : 0;
        s.traced = interleave && (k / w.cycle) % 2 == 1;
        const RequestSpec& spec = w.pool[s.spec];
        const std::string& payload = payloads[spec.payload];
        const std::string header = frame_header(spec, s.id, s.epoch, payload.size());
        const auto root = tracer.span("client.request", s.id, s.traced);
        const Clock::time_point sent_at = Clock::now();
        {
          const auto scope = tracer.span("client.send", s.id, s.traced);
          conn.send(header, payload, "end\n");
        }
        std::optional<dts::WireResponse> response;
        {
          const auto scope = tracer.span("client.receive", s.id, s.traced);
          response = conn.receive();
        }
        s.latency_ms = 1e3 * seconds_between(sent_at, Clock::now());
        if (!response) throw std::runtime_error("server closed the connection");
        s.response = std::move(*response);
        per_client[c].push_back(std::move(s));
      }
    } catch (const std::exception& e) {
      errors[c] = e.what();
    }
  };

  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) threads.emplace_back(client, c);
  for (std::thread& t : threads) t.join();
  Phase phase;
  phase.seconds = seconds_between(start, Clock::now());
  for (const std::string& e : errors) {
    if (!e.empty()) throw std::runtime_error("client failed: " + e);
  }
  for (auto& sent : per_client) {
    for (Sent& s : sent) phase.sent.push_back(std::move(s));
  }
  return phase;
}

std::map<std::string, std::string> server_stats(const std::string& socket) {
  Connection conn(socket);
  conn.send("dts1 stats perfbench\nend\n", "", "");
  const std::optional<dts::WireResponse> response = conn.receive();
  if (!response) throw std::runtime_error("no stats response");
  std::map<std::string, std::string> stats;
  for (const std::string& line : response->extra) {
    const auto space = line.find(' ');
    stats[line.substr(0, space)] = space == std::string::npos ? "" : line.substr(space + 1);
  }
  return stats;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// A direct solve of the request, as the service runs it.
dts::SolveResult direct_solve(const RequestSpec& spec, const dts::Instance& inst,
                              std::uint64_t epoch) {
  dts::SolveRequest request;
  request.instance = inst;
  request.capacity = spec.capacity_factor * inst.min_capacity();
  dts::SolveOptions options;
  options.compute_bounds = false;
  options.parallel_candidates = false;
  options.seed = epoch > 0 ? epoch + 1 : dts::SolveOptions{}.seed;
  return dts::solve(request, spec.solver, options);
}

/// Empty when `schedule` is feasible for the instance at the spec's
/// capacity, else the validator's summary.
std::string schedule_problem(const RequestSpec& spec, const dts::Instance& inst,
                             const dts::WireResponse& r) {
  if (r.schedule.size() != inst.size()) return "mismatch: schedule has the wrong length";
  dts::Schedule schedule(inst.size());
  for (dts::TaskId i = 0; i < inst.size(); ++i) {
    schedule.set(i, r.schedule[i].first, r.schedule[i].second);
  }
  const dts::ValidationReport report = dts::validate_schedule(
      inst, schedule, spec.capacity_factor * inst.min_capacity());
  if (report.ok()) return {};
  std::string summary = report.summary();
  std::replace(summary.begin(), summary.end(), '\n', ' ');
  return "infeasible: " + summary;
}

/// Empty when the response equals the direct solve in winner, makespan
/// (bitwise) and order. Problems are prefixed with their kind: `status`
/// (not an ok response), `mismatch` (a wrong answer) or `infeasible` (a
/// schedule that fails validate_schedule).
std::string differs_from(const dts::WireResponse& r, const dts::SolveResult& direct) {
  if (r.winner != direct.winner) {
    return "mismatch: winner " + r.winner + " != direct " + direct.winner;
  }
  if (!same_bits(r.makespan, direct.makespan)) {
    char text[96];
    std::snprintf(text, sizeof text, "mismatch: makespan %.17g != direct %.17g", r.makespan,
                  direct.makespan);
    return text;
  }
  const std::vector<dts::TaskId> order = direct.schedule.comm_order();
  if (!std::equal(r.order.begin(), r.order.end(), order.begin(), order.end())) {
    return "mismatch: order differs from the direct solve";
  }
  return {};
}

/// Runs fn(i) for i in [0, n) on up to four threads.
void parallel_for_each(std::size_t n, const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  std::mutex mutex;
  std::string error;
  const auto worker = [&] {
    for (std::size_t i = next++; i < n; i = next++) {
      try {
        fn(i);
      } catch (const std::exception& e) {
        const std::lock_guard<std::mutex> lock(mutex);
        if (error.empty()) error = e.what();
      }
    }
  };
  const std::size_t threads =
      std::max<std::size_t>(1, std::min<std::size_t>(4, std::thread::hardware_concurrency()));
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  if (!error.empty()) throw std::runtime_error(error);
}

struct OracleResult {
  std::vector<std::string> failures;  ///< One line per failed request.
  std::vector<double> makespan_ratios;
};

std::string status_problem(const dts::WireResponse& r,
                           dts::WireResponse::CacheOutcome expected) {
  if (r.status != dts::WireResponse::Status::kOk) {
    return "status: " + dts::to_string(r.status) +
           (r.error.empty() ? "" : ": " + r.error) +
           (r.shed_reason.empty() ? "" : ": " + r.shed_reason);
  }
  if (r.cache != expected) {
    return "mismatch: cache " + dts::to_string(r.cache) + ", expected " +
           dts::to_string(expected);
  }
  return {};
}

/// serve-cold, solve-scaling and refine: every response equals a direct
/// solve of the same request and its schedule validates.
OracleResult check_against_direct(const Workload& w, const std::vector<Sent>& sent) {
  std::vector<std::string> problems(sent.size());
  parallel_for_each(sent.size(), [&](std::size_t i) {
    const Sent& s = sent[i];
    const RequestSpec& spec = w.pool[s.spec];
    std::string problem = status_problem(s.response, dts::WireResponse::CacheOutcome::kMiss);
    if (problem.empty()) {
      const dts::Instance inst = build_instance(spec);
      problem = differs_from(s.response, direct_solve(spec, inst, s.epoch));
      if (problem.empty()) problem = schedule_problem(spec, inst, s.response);
    }
    if (!problem.empty()) {
      problems[i] = "r" + std::to_string(s.id) + " (" + describe(spec) + ") " + problem;
    }
  });
  OracleResult result;
  for (std::string& p : problems) {
    if (!p.empty()) result.failures.push_back(std::move(p));
  }
  result.makespan_ratios.assign(std::min(w.quality_specs, w.pool.size()), 0.0);
  parallel_for_each(result.makespan_ratios.size(), [&](std::size_t q) {
    const dts::Instance inst = build_instance(w.pool[q]);
    result.makespan_ratios[q] = direct_solve(w.pool[q], inst, 0).makespan / dts::omim(inst);
  });
  return result;
}

/// serve-warm: the fill responses equal direct solves; every resend
/// equals its shape's fill response in winner and makespan (bitwise), its
/// schedule validates on the relabelled instance, and repeats of one
/// frame answer identically.
OracleResult check_warm(const Workload& w, const std::vector<dts::WireResponse>& fill,
                        const std::vector<Sent>& sent) {
  OracleResult result;
  result.makespan_ratios.assign(w.fill.size(), 0.0);
  std::vector<std::string> fill_problems(w.fill.size());
  parallel_for_each(w.fill.size(), [&](std::size_t s) {
    const RequestSpec& spec = w.fill[s];
    const dts::Instance inst = build_instance(spec);
    std::string problem = status_problem(fill[s], dts::WireResponse::CacheOutcome::kMiss);
    if (problem.empty()) problem = differs_from(fill[s], direct_solve(spec, inst, 0));
    if (problem.empty()) problem = schedule_problem(spec, inst, fill[s]);
    if (!problem.empty()) fill_problems[s] = "fill (" + describe(spec) + ") " + problem;
    result.makespan_ratios[s] = fill[s].makespan / dts::omim(inst);
  });
  for (std::string& p : fill_problems) {
    if (!p.empty()) result.failures.push_back(std::move(p));
  }

  // First response per distinct frame: validated; later ones must match it.
  std::map<std::size_t, std::size_t> first_of;
  for (std::size_t i = 0; i < sent.size(); ++i) first_of.emplace(sent[i].spec, i);
  std::vector<std::size_t> firsts;
  for (const auto& [spec, i] : first_of) firsts.push_back(i);
  std::vector<std::string> problems(sent.size());
  parallel_for_each(firsts.size(), [&](std::size_t f) {
    const Sent& s = sent[firsts[f]];
    const RequestSpec& spec = w.pool[s.spec];
    std::string problem = status_problem(s.response, dts::WireResponse::CacheOutcome::kHit);
    if (problem.empty()) {
      const dts::WireResponse& cold = fill[spec.shape];
      if (s.response.winner != cold.winner || !same_bits(s.response.makespan, cold.makespan)) {
        problem = "mismatch: differs from its shape's cold response";
      } else {
        problem = schedule_problem(spec, build_instance(spec), s.response);
      }
    }
    problems[firsts[f]] = problem;
  });
  for (std::size_t i = 0; i < sent.size(); ++i) {
    const Sent& s = sent[i];
    const std::size_t first = first_of.at(s.spec);
    std::string problem = problems[first];
    if (problem.empty() && i != first) {
      const dts::WireResponse& a = s.response;
      const dts::WireResponse& b = sent[first].response;
      problem = status_problem(a, dts::WireResponse::CacheOutcome::kHit);
      if (problem.empty() &&
          (a.winner != b.winner || !same_bits(a.makespan, b.makespan) ||
           a.order != b.order || a.schedule.size() != b.schedule.size() ||
           !std::equal(a.schedule.begin(), a.schedule.end(), b.schedule.begin(),
                       [](const auto& x, const auto& y) {
                         return same_bits(x.first, y.first) && same_bits(x.second, y.second);
                       }))) {
        problem = "mismatch: differs from an earlier response to the same frame";
      }
    }
    if (!problem.empty()) {
      result.failures.push_back("r" + std::to_string(s.id) + " (" +
                                describe(w.pool[s.spec]) + ") " + problem);
    }
  }
  return result;
}

void write_doubles(std::ostream& out, const std::vector<double>& values) {
  out << '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    out << (i > 0 ? "," : "") << json_number(values[i]);
  }
  out << ']';
}

int run(const Options& o) {
  Workload w = make_workload(o.workload, o.seed, o.seconds);
  if (o.inject_infeasible) {
    if (!w.fill.empty()) throw std::invalid_argument("--inject-infeasible needs a cache-missing workload");
    std::size_t payloads = 0;
    for (const RequestSpec& spec : w.pool) payloads = std::max(payloads, spec.payload + 1);
    w.pool[0] = known_infeasible_spec();
    w.pool[0].payload = payloads;
  }

  // Set-up, repeated on the untraced run so setup_s is a median: four
  // times before the timed phase (the last server serves it) and four
  // times after it, so the samples span the run instead of one moment of
  // a host whose speed drifts.
  const int setups_before = o.trace ? 1 : 4;
  const int setups_after = o.trace ? 0 : 4;
  std::vector<double> setup_seconds;
  std::vector<std::string> payloads;
  std::vector<dts::WireResponse> fill;
  const auto timed_set_up = [&] {
    payloads.clear();
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<ServerProcess> started = set_up(o, w, payloads, fill);
    setup_seconds.push_back(seconds_between(t0, Clock::now()));
    return started;
  };
  std::unique_ptr<ServerProcess> server;
  for (int rep = 0; rep < setups_before; ++rep) {
    if (server) server->stop();
    server = timed_set_up();
  }

  Tracer tracer(o.trace);
  const Phase phase = run_phase(o, w, payloads, o.seconds, tracer, o.trace);
  const std::map<std::string, std::string> stats = server_stats(o.socket);
  const long peak_rss_kib = server->stop();
  server.reset();

  const OracleResult oracle = w.fill.empty() ? check_against_direct(w, phase.sent)
                                             : check_warm(w, fill, phase.sent);
  for (int rep = 0; rep < setups_after; ++rep) timed_set_up()->stop();

  ProbeReport probes;
  if (o.trace) {
    const std::size_t replay = w.name == "serve-warm"      ? w.pool.size()
                               : w.name == "solve-scaling" ? w.cycle
                               : w.name == "refine"        ? 2 * w.cycle
                                                           : 40;
    probe_request_path(w, payloads, replay, tracer, probes);
    probe_solver_layers(make_probe_inputs(o.seed), tracer, probes);
  }

  std::ofstream out(o.out);
  if (!out) throw std::runtime_error("cannot write " + o.out);
  out << "{\"workload\":" << json_string(w.name) << ",\"seed\":" << o.seed
      << ",\"seconds\":" << json_number(o.seconds) << ",\"trace\":" << (o.trace ? 1 : 0)
      << ",\"loop\":\"closed\",\"connections\":" << w.connections
      << ",\"workers\":" << w.workers << ",\"setup_seconds\":";
  write_doubles(out, setup_seconds);
  std::vector<double> untraced;
  std::vector<double> traced;
  std::vector<double> injected;
  for (const Sent& s : phase.sent) {
    (s.traced ? traced : untraced).push_back(s.latency_ms);
    if (o.inject_infeasible && s.spec == 0) injected.push_back(static_cast<double>(s.id));
  }
  out << ",\"phase_seconds\":" << json_number(phase.seconds) << ",\"latencies_ms\":";
  write_doubles(out, untraced);
  out << ",\"traced_latencies_ms\":";
  write_doubles(out, traced);
  out << ",\"injected_ids\":";
  write_doubles(out, injected);
  out << ",\"attempted\":" << phase.sent.size() << ",\"failures\":[";
  for (std::size_t i = 0; i < oracle.failures.size(); ++i) {
    out << (i > 0 ? "," : "") << json_string(oracle.failures[i]);
  }
  out << "],\"makespan_ratios\":";
  write_doubles(out, oracle.makespan_ratios);
  out << ",\"peak_rss_kib\":" << peak_rss_kib << ",\"server_stats\":{";
  bool first = true;
  for (const auto& [key, value] : stats) {
    out << (first ? "" : ",") << json_string(key) << ':' << json_string(value);
    first = false;
  }
  out << "},\"counters\":{";
  first = true;
  for (const auto& [key, value] : probes.counters) {
    out << (first ? "" : ",") << json_string(key) << ':' << value;
    first = false;
  }
  out << "},\"samples\":{";
  first = true;
  for (const auto& [key, values] : probes.samples) {
    out << (first ? "" : ",") << json_string(key) << ':';
    write_doubles(out, values);
    first = false;
  }
  out << "},\"spans\":";
  tracer.write_json(out);
  out << "}\n";
  out.close();
  if (!out) throw std::runtime_error("failed writing " + o.out);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // A server that dies mid-request must fail the write, not kill the driver.
  std::signal(SIGPIPE, SIG_IGN);
  try {
    return perfbench::run(perfbench::parse_options(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dts_perfbench: %s\n", e.what());
    return 1;
  }
}
