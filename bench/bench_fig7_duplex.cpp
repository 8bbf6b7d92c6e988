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
/// heuristic by median ratio-to-exact. CI runs --quick and guards every
/// row against bench/baselines/fig7_duplex_quick.json via
/// tools/check_bench_baseline.py; all of a row's values are exact.
///
///   bench_fig7_duplex [--quick] [--traces=N] [--seed=S] [--csv-dir=P]
///   rows: BENCH_fig7_duplex.json, or the file bench::Options names

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/solver.hpp"
#include "report/stats.hpp"
#include "trace/generators.hpp"

int main(int argc, char** argv) {
  using namespace dts;
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
  std::vector<bench::Row> rows;
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
      const double exact_median = summarize(exact).median;
      const double proved_fraction =
          traces.empty() ? 1.0
                         : static_cast<double>(proved) /
                               static_cast<double>(traces.size());
      all_proved = all_proved && proved == traces.size();

      std::vector<std::string> cells{format_fixed(factor, 3) + " mc",
                                     format_fixed(exact_median, 6),
                                     format_fixed(proved_fraction, 2)};
      std::string best_heuristic;  // lowest median ratio-to-exact
      double best_ratio = 0.0;
      for (std::size_t h = 0; h < ids.size(); ++h) {
        const double median_ratio = summarize(ratios[h]).median;
        cells.push_back(format_fixed(median_ratio, 4));
        if (best_heuristic.empty() || median_ratio < best_ratio) {
          best_ratio = median_ratio;
          best_heuristic = std::string(name_of(ids[h]));
        }
      }
      table.add_row(std::move(cells));

      bench::Row& row = rows.emplace_back(std::string(to_string(kernel)) +
                                          "/" + format_fixed(factor, 3) +
                                          "mc");
      row.exact("traces", std::uint64_t{traces.size()});
      row.exact("milp_median_makespan_seconds", exact_median);
      row.exact("proved_fraction", proved_fraction);
      row.exact("best_heuristic", best_heuristic);
      row.exact("best_heuristic_median_makespan_seconds",
                best_ratio * exact_median);
      std::printf(".");
      std::fflush(stdout);
    }
    std::printf("\n\n%s\n", table.to_ascii().c_str());
    bench::write_table_csv(options,
                           std::string("fig7_duplex_") +
                               std::string(to_string(kernel)),
                           table);
  }

  if (!bench::write_rows(options, "fig7_duplex", rows)) return 1;
  if (!all_proved) {
    std::fprintf(stderr,
                 "FAIL: milp left traces unproven — the corpus must stay "
                 "inside the provable envelope\n");
    return 1;
  }
  return 0;
}
