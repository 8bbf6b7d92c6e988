/// Fig. 7, duplex edition — the paper's exact-vs-heuristic comparison
/// rerun with a *true* MILP in the exact seat. The original figure pits
/// the heuristics against GLPK-windowed lp.k solves on single-channel HF
/// traces (fig07_milp_comparison.cpp reproduces that with the windowed
/// per-window optimizer); here the self-contained src/milp/ backend
/// proves whole-instance optima, so every heuristic's gap is measured
/// against certified ground truth — and on *bidirectional* traces, the
/// regime the paper's LP never covered.
///
/// Small duplex HF and CCSD traces (fetch + write-back pairs on the two
/// duplex-pcie engines, sized so branch-and-bound provably closes) across
/// the paper's nine capacity factors mc..2mc. One JSON row per
/// (kernel, factor): the exact median makespan, the proved fraction
/// (expected 1.0 — the bench exits nonzero otherwise), and the best
/// heuristic by median ratio-to-exact. CI runs --quick and guards the
/// deterministic makespan columns against
/// bench/baselines/fig7_duplex_quick.json via
/// tools/check_bench_baseline.py.
///
///   bench_fig7_duplex [--quick] [--traces=N] [--seed=S] [--csv-dir=P]
///                     [--json=FILE]   (default BENCH_fig7_duplex.json)

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/solver.hpp"
#include "report/stats.hpp"
#include "trace/generators.hpp"

namespace {

/// Strips a --json=FILE argument before bench::Options sees it.
std::string take_json_flag(int& argc, char** argv) {
  std::string json = "BENCH_fig7_duplex.json";
  int w = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      json = arg.substr(7);
    } else {
      argv[w++] = argv[i];
    }
  }
  argc = w;
  return json;
}

struct Fig7Row {
  std::string kernel;
  double factor = 1.0;
  double exact_median = 0.0;       ///< median proved-optimal makespan
  double proved_fraction = 0.0;    ///< fraction of traces milp closed
  std::string best_heuristic;      ///< lowest median ratio-to-exact
  double best_median = 0.0;        ///< that heuristic's median makespan
};

}  // namespace

int main(int argc, char** argv) {
  using namespace dts;
  const std::string json_path = take_json_flag(argc, argv);
  const bench::Options options = bench::Options::parse(argc, argv);

  // Fetch + write-back pairs on the duplex machine: 2 fetches -> 4 tasks,
  // inside the n<=4 envelope the MILP backend closes within its default
  // node budget on every corpus instance.
  TraceConfig config;
  config.seed = options.seed;
  config.min_tasks = 2;
  config.max_tasks = 2;
  config.machine = machine_from_name("duplex-pcie");

  const std::vector<HeuristicId> ids = all_heuristic_ids();
  std::vector<Fig7Row> rows;
  bool all_proved = true;

  for (ChemistryKernel kernel : {ChemistryKernel::kHartreeFock,
                                 ChemistryKernel::kCoupledClusterSD}) {
    const std::vector<Instance> traces = generate_process_traces(
        kernel, options.traces, options.seed, config);
    std::printf("Fig. 7 duplex — %zu %s traces (%zu tasks each), "
                "heuristic medians as ratio to the proved optimum:\n\n",
                traces.size(), std::string(to_string(kernel)).c_str(),
                traces.empty() ? 0 : traces.front().size());

    std::vector<std::string> headers{"capacity", "exact (s)", "proved"};
    for (HeuristicId id : ids) headers.emplace_back(name_of(id));
    TextTable table(std::move(headers));

    for (double factor : bench::capacity_factors()) {
      Fig7Row row;
      row.kernel = std::string(to_string(kernel));
      row.factor = factor;

      std::vector<double> exact;
      std::size_t proved = 0;
      std::vector<std::vector<double>> ratios(ids.size());
      for (const Instance& inst : traces) {
        SolveRequest request;
        request.instance = inst;
        request.capacity = factor * inst.min_capacity();
        const SolveResult result = solve(request, "milp");
        if (result.proved_optimal) ++proved;
        exact.push_back(result.makespan);
        for (std::size_t h = 0; h < ids.size(); ++h) {
          const Time makespan =
              heuristic_makespan(ids[h], inst, request.capacity);
          ratios[h].push_back(result.makespan > 0.0
                                  ? makespan / result.makespan
                                  : 1.0);
        }
      }
      row.exact_median = summarize(exact).median;
      row.proved_fraction =
          traces.empty() ? 1.0
                         : static_cast<double>(proved) /
                               static_cast<double>(traces.size());
      all_proved = all_proved && proved == traces.size();

      std::vector<std::string> cells{format_fixed(factor, 3) + " mc",
                                     format_fixed(row.exact_median, 6),
                                     format_fixed(row.proved_fraction, 2)};
      double best_ratio = 0.0;
      for (std::size_t h = 0; h < ids.size(); ++h) {
        const double median_ratio = summarize(ratios[h]).median;
        cells.push_back(format_fixed(median_ratio, 4));
        if (row.best_heuristic.empty() || median_ratio < best_ratio) {
          best_ratio = median_ratio;
          row.best_heuristic = std::string(name_of(ids[h]));
          row.best_median = median_ratio * row.exact_median;
        }
      }
      table.add_row(std::move(cells));
      rows.push_back(row);
      std::printf(".");
      std::fflush(stdout);
    }
    std::printf("\n\n%s\n", table.to_ascii().c_str());
    bench::write_table_csv(options,
                           std::string("fig7_duplex_") +
                               std::string(to_string(kernel)),
                           table);
  }

  std::ofstream json(json_path);
  if (!json) {
    std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
    return 1;
  }
  json << "{\n  \"bench\": \"fig7_duplex\",\n  \"traces_per_kernel\": "
       << options.traces << ",\n  \"rows\": [\n";
  json.precision(12);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Fig7Row& row = rows[i];
    json << "    {\"kernel\": \"" << row.kernel
         << "\", \"capacity_factor\": " << row.factor
         << ", \"milp_median_makespan_seconds\": " << row.exact_median
         << ", \"proved_fraction\": " << row.proved_fraction
         << ", \"best_heuristic\": \"" << row.best_heuristic
         << "\", \"best_heuristic_median_makespan_seconds\": "
         << row.best_median << "}" << (i + 1 < rows.size() ? "," : "")
         << "\n";
  }
  json << "  ]\n}\n";
  std::printf("wrote %s (%zu rows)\n", json_path.c_str(), rows.size());

  if (!all_proved) {
    std::fprintf(stderr,
                 "FAIL: milp left traces unproven — the corpus must stay "
                 "inside the provable envelope\n");
    return 1;
  }
  return 0;
}
