/// Solver-service throughput — the result cache's report card.
///
/// For HF and CCSD corpora, runs a duplicate-heavy request mix (a few
/// distinct shapes, many repeats — the serving workload the cache is
/// for) through a SolverService twice:
///
///  * cold: every distinct shape once on a fresh service — all cache
///    misses, each paying a full solve;
///  * warm: the full duplicate-heavy stream — all cache hits, each
///    re-costed from the cached canonical order at response time.
///
/// Before any number is reported, every warm response is cross-checked
/// bitwise (winner, makespan, evaluations, order, every schedule start
/// time) against its cold response, and every cold response against a
/// direct dts::solve() of the same request — a cache that serves
/// different bytes fails the bench, it does not get a throughput row.
/// The acceptance bar warm_cold_speedup >= 10 is enforced here with a
/// hard exit. CI guards every row via tools/check_bench_baseline.py: the
/// shape and request counts and the median makespan exactly, the rates
/// and the speedup laxly (the speedup is machine-robust: both passes run
/// on the same machine seconds apart).
///
///   bench_service_throughput [--quick] [--traces=N] [--seed=S]
///   rows: BENCH_service_throughput.json, or the file bench::Options names

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/solver.hpp"
#include "report/stats.hpp"
#include "service/service.hpp"
#include "trace/generators.hpp"

namespace {

using namespace dts;

constexpr double kRequiredSpeedup = 10.0;

struct ServiceRow {
  std::size_t distinct = 0;       ///< Distinct shapes (cold solves).
  std::uint64_t requests = 0;     ///< Warm-stream requests (all hits).
  double cold_requests_per_sec = 0.0;
  double warm_requests_per_sec = 0.0;
  double warm_cold_speedup = 0.0;
  double median_makespan_seconds = 0.0;
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

bool identical(const ServiceResponse& a, const ServiceResponse& b) {
  if (a.winner != b.winner || a.makespan != b.makespan ||
      a.evaluations != b.evaluations || a.order != b.order ||
      a.schedule.size() != b.schedule.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.schedule.size(); ++i) {
    if (a.schedule[i].comm_start != b.schedule[i].comm_start ||
        a.schedule[i].comp_start != b.schedule[i].comp_start) {
      return false;
    }
  }
  return true;
}

/// One kernel row: cold pass, bitwise anchor against direct solves, warm
/// duplicate-heavy pass, bitwise warm==cold check. Returns false (no
/// row) on any mismatch.
bool measure(const std::vector<Instance>& shapes, std::uint64_t repeats,
             ServiceRow& row) {
  ServiceOptions service_options;
  service_options.workers = 2;
  SolverService service(service_options);

  std::vector<ServiceRequest> requests(shapes.size());
  for (std::size_t s = 0; s < shapes.size(); ++s) {
    requests[s].id = std::to_string(s);
    requests[s].instance = shapes[s];
    requests[s].capacity = 1.5 * shapes[s].min_capacity();
  }

  // Cold: each distinct shape pays a full solve.
  std::vector<ServiceResponse> cold(shapes.size());
  const auto cold_start = std::chrono::steady_clock::now();
  for (std::size_t s = 0; s < shapes.size(); ++s) {
    cold[s] = service.handle(requests[s]);
  }
  const double cold_wall = seconds_since(cold_start);

  std::vector<double> makespans;
  for (std::size_t s = 0; s < shapes.size(); ++s) {
    if (cold[s].status != WireResponse::Status::kOk) {
      std::fprintf(stderr, "cold solve %zu failed: %s\n", s,
                   cold[s].error.c_str());
      return false;
    }
    // Anchor: the service's cold answer is exactly a direct solve.
    SolveRequest direct;
    direct.instance = shapes[s];
    direct.capacity = *requests[s].capacity;
    SolveOptions options;
    options.compute_bounds = false;
    const SolveResult fresh = solve(direct, "auto", options);
    if (cold[s].winner != fresh.winner ||
        cold[s].makespan != fresh.makespan ||
        cold[s].order != fresh.schedule.comm_order()) {
      std::fprintf(stderr,
                   "BITWISE MISMATCH shape %zu: service cold vs direct "
                   "solve (makespan %.17g vs %.17g)\n",
                   s, cold[s].makespan, fresh.makespan);
      return false;
    }
    makespans.push_back(cold[s].makespan);
  }

  // Warm: the duplicate-heavy stream, strided so consecutive requests
  // alternate shapes (no trivially-hot single entry).
  row.requests = repeats * shapes.size();
  bool match = true;
  const auto warm_start = std::chrono::steady_clock::now();
  for (std::uint64_t rep = 0; rep < repeats && match; ++rep) {
    for (std::size_t s = 0; s < shapes.size(); ++s) {
      const ServiceResponse warm = service.handle(requests[s]);
      if (warm.status != WireResponse::Status::kOk ||
          warm.cache != WireResponse::CacheOutcome::kHit ||
          !identical(warm, cold[s])) {
        std::fprintf(stderr,
                     "BITWISE MISMATCH shape %zu rep %llu: warm response "
                     "differs from cold\n",
                     s, static_cast<unsigned long long>(rep));
        match = false;
        break;
      }
    }
  }
  const double warm_wall = seconds_since(warm_start);
  if (!match) return false;

  const ServiceCounters counters = service.counters();
  if (counters.cache.hits != row.requests ||
      counters.cache.misses != shapes.size()) {
    std::fprintf(stderr, "cache counters do not reconcile\n");
    return false;
  }

  row.distinct = shapes.size();
  row.cold_requests_per_sec =
      cold_wall > 0.0 ? static_cast<double>(shapes.size()) / cold_wall : 0.0;
  row.warm_requests_per_sec =
      warm_wall > 0.0 ? static_cast<double>(row.requests) / warm_wall : 0.0;
  row.warm_cold_speedup =
      cold_wall > 0.0 && warm_wall > 0.0
          ? row.warm_requests_per_sec / row.cold_requests_per_sec
          : 0.0;
  row.median_makespan_seconds = summarize(makespans).median;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Options options = bench::Options::parse(argc, argv);

  // Duplicate-heavy mix: a handful of distinct shapes, many repeats.
  const std::size_t distinct = options.quick ? 6 : 16;
  const std::uint64_t repeats = options.quick ? 200 : 500;

  std::printf("solver-service throughput — %zu distinct shapes/kernel, "
              "%llu warm repeats each, warm==cold checked bitwise\n\n",
              distinct, static_cast<unsigned long long>(repeats));

  std::vector<bench::Row> rows;
  TextTable table({"kernel", "mode", "distinct", "requests", "cold req/s",
                   "warm req/s", "speedup", "median makespan"});
  bool fast_enough = true;

  for (ChemistryKernel kernel : {ChemistryKernel::kHartreeFock,
                                 ChemistryKernel::kCoupledClusterSD}) {
    bench::Options corpus_options = options;
    corpus_options.traces = distinct;
    const std::vector<Instance> shapes = bench::corpus(kernel, corpus_options);

    const std::string kernel_name(to_string(kernel));
    ServiceRow row;
    if (!measure(shapes, repeats, row)) {
      std::fprintf(stderr,
                   "cached responses are not bitwise identical to fresh "
                   "solves on %s — refusing to report throughput\n",
                   kernel_name.c_str());
      return 1;
    }
    if (row.warm_cold_speedup < kRequiredSpeedup) {
      std::fprintf(stderr,
                   "warm/cold speedup %.2fx on %s is below the required "
                   "%.0fx — the cache is not earning its keep\n",
                   row.warm_cold_speedup, kernel_name.c_str(),
                   kRequiredSpeedup);
      fast_enough = false;
    }

    bench::Row& out = rows.emplace_back(kernel_name);
    out.exact("distinct", std::uint64_t{row.distinct});
    out.exact("requests", row.requests);
    out.exact("median_makespan_seconds", row.median_makespan_seconds);
    out.timing("cold_requests_per_sec", row.cold_requests_per_sec);
    out.timing("warm_requests_per_sec", row.warm_requests_per_sec);
    out.timing("warm_cold_speedup", row.warm_cold_speedup);

    char distinct_text[16], req_text[24], cold_text[24], warm_text[24],
        speedup_text[16], ms_text[32];
    std::snprintf(distinct_text, sizeof distinct_text, "%zu", row.distinct);
    std::snprintf(req_text, sizeof req_text, "%llu",
                  static_cast<unsigned long long>(row.requests));
    std::snprintf(cold_text, sizeof cold_text, "%.3g",
                  row.cold_requests_per_sec);
    std::snprintf(warm_text, sizeof warm_text, "%.3g",
                  row.warm_requests_per_sec);
    std::snprintf(speedup_text, sizeof speedup_text, "%.1fx",
                  row.warm_cold_speedup);
    std::snprintf(ms_text, sizeof ms_text, "%.6g s",
                  row.median_makespan_seconds);
    table.add_row({kernel_name, "service", distinct_text, req_text, cold_text,
                   warm_text, speedup_text, ms_text});
  }

  std::printf("%s\n", table.to_ascii().c_str());
  if (!fast_enough) return 1;
  return bench::write_rows(options, "service_throughput", rows) ? 0 : 1;
}
