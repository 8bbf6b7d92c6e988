/// \file bench_pool.cpp
/// Throughput scaling of the SolverPool service: a fixed mix of HF (and
/// optionally CCSD) process traces is pushed through the pool at 1..N
/// workers, measuring jobs/sec and the speedup over the 1-worker baseline.
/// The acceptance target for the service layer is >2.5x jobs/sec at 4
/// workers on a 64-instance HF mix (requires >= 4 hardware cores; the
/// table prints the detected core count so undersized machines are
/// self-explanatory).
///
///   ./bench_pool [--traces=N] [--seed=S] [--solver=NAME] [--mix=hf|hf+ccsd]
///                [--max-workers=W] [--csv-dir=PATH]

#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/pool.hpp"
#include "report/table.hpp"
#include "trace/generators.hpp"

namespace {

using namespace dts;

struct PoolBenchConfig {
  std::size_t traces = 64;
  std::uint64_t seed = 1;
  std::string solver = "auto";
  bool with_ccsd = false;
  std::size_t max_workers = 8;
  std::string csv_dir = "bench_csv";
};

PoolBenchConfig parse_args(int argc, char** argv) {
  PoolBenchConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const std::string& prefix) {
      return arg.substr(prefix.size());
    };
    if (arg.rfind("--traces=", 0) == 0) {
      config.traces = std::stoul(value("--traces="));
    } else if (arg.rfind("--seed=", 0) == 0) {
      config.seed = std::stoull(value("--seed="));
    } else if (arg.rfind("--solver=", 0) == 0) {
      config.solver = value("--solver=");
    } else if (arg.rfind("--mix=", 0) == 0) {
      config.with_ccsd = value("--mix=") == "hf+ccsd";
    } else if (arg.rfind("--max-workers=", 0) == 0) {
      config.max_workers = std::stoul(value("--max-workers="));
    } else if (arg.rfind("--csv-dir=", 0) == 0) {
      config.csv_dir = value("--csv-dir=");
    } else {
      std::cerr << "unknown argument '" << arg << "'\n";
      std::exit(2);
    }
  }
  return config;
}

std::vector<JobRequest> build_jobs(const PoolBenchConfig& config) {
  TraceConfig trace_config;
  trace_config.min_tasks = 300;
  trace_config.max_tasks = 800;
  std::vector<JobRequest> jobs;
  jobs.reserve(config.traces);
  for (std::size_t k = 0; k < config.traces; ++k) {
    trace_config.seed = config.seed + k;
    const ChemistryKernel kernel =
        (config.with_ccsd && k % 2 == 1) ? ChemistryKernel::kCoupledClusterSD
                                         : ChemistryKernel::kHartreeFock;
    JobRequest job;
    job.request.instance = generate_trace(kernel, trace_config);
    job.request.capacity = 1.25 * job.request.instance.min_capacity();
    job.solver = config.solver;
    // No redundant bound recomputation in the hot loop; inner candidate
    // fan-out runs on the pool's own crew (run_job sets the executor).
    job.options.compute_bounds = false;
    job.tag = std::string(to_string(kernel)) + "/" + std::to_string(k);
    jobs.push_back(std::move(job));
  }
  return jobs;
}

}  // namespace

int main(int argc, char** argv) {
  const PoolBenchConfig config = parse_args(argc, argv);
  const std::vector<JobRequest> jobs = build_jobs(config);

  std::cout << "SolverPool throughput: " << jobs.size() << " "
            << (config.with_ccsd ? "HF+CCSD" : "HF") << " traces, solver "
            << config.solver << ", " << bench::pool().worker_count()
            << " hardware workers available\n";

  std::vector<std::size_t> worker_counts;
  for (std::size_t w = 1; w <= config.max_workers; w *= 2) {
    worker_counts.push_back(w);
  }

  TextTable table({"workers", "wall (s)", "jobs/sec", "speedup vs 1"});
  std::vector<std::vector<std::string>> csv_rows;
  double base_wall = 0.0;
  for (const std::size_t workers : worker_counts) {
    SolverPoolOptions pool_options;
    pool_options.workers = workers;
    pool_options.queue_capacity = jobs.size() + 1;
    SolverPool pool(pool_options);

    const auto start = std::chrono::steady_clock::now();
    const std::vector<JobOutcome> outcomes = solve_all(pool, jobs);
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    pool.shutdown(DrainMode::kDrain);

    std::size_t bad = 0;
    for (const JobOutcome& outcome : outcomes) {
      if (outcome.status != JobStatus::kDone) ++bad;
    }
    if (bad > 0) {
      std::cerr << bad << " jobs did not complete normally\n";
      return 1;
    }

    if (workers == 1) base_wall = wall;
    const double jobs_per_sec = wall > 0.0 ? jobs.size() / wall : 0.0;
    const double speedup = wall > 0.0 ? base_wall / wall : 0.0;
    table.add_row({std::to_string(workers), format_fixed(wall, 3),
                   format_fixed(jobs_per_sec, 1), format_fixed(speedup, 2)});
    csv_rows.push_back({std::to_string(workers), std::to_string(wall),
                        std::to_string(jobs_per_sec),
                        std::to_string(speedup)});
  }
  std::cout << table.to_ascii();

  if (!config.csv_dir.empty()) {
    bench::Options csv_options;
    csv_options.csv_dir = config.csv_dir;
    TextTable csv_table({"workers", "wall_seconds", "jobs_per_sec",
                         "speedup_vs_1"});
    for (const auto& row : csv_rows) {
      csv_table.add_row({row[0], row[1], row[2], row[3]});
    }
    bench::write_table_csv(csv_options, "bench_pool", csv_table);
  }
  return 0;
}
