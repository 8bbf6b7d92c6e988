#pragma once

/// Shared machinery for the figure-regeneration harnesses: command-line
/// knobs, the (trace x capacity x heuristic) ratio grids of the paper's
/// evaluation, boxplot table rendering, CSV export, and the one JSON row
/// writer of the CI benches.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/pool.hpp"
#include "core/registry.hpp"
#include "report/stats.hpp"
#include "report/table.hpp"
#include "trace/generators.hpp"

namespace dts::bench {

/// Common knobs: --traces=N (default 150, the paper's process count; at
/// least 1), --seed=S (default 1), --csv-dir=PATH (default ./bench_csv;
/// empty disables CSV output), --quick (25 traces, and the smaller
/// workloads of the throughput benches), --json=FILE (where write_rows
/// puts a CI bench's rows). A malformed value or an unknown option exits
/// with status 2 and a message naming the flag.
struct Options {
  std::size_t traces = 150;
  std::uint64_t seed = 1;
  std::string csv_dir = "bench_csv";
  std::string json;  ///< empty: BENCH_<bench>.json
  bool quick = false;

  static Options parse(int argc, char** argv);
};

/// One row of a CI bench's JSON: a workload label, unique within the
/// bench, and two kinds of value that tools/check_bench_baseline.py
/// judges by different rules.
struct Row {
  explicit Row(std::string workload_label)
      : workload(std::move(workload_label)) {}

  /// A deterministic value (a makespan or ratio at %.17g, a count, a
  /// name): the guard requires it to equal the baseline's.
  void exact(std::string_view name, double value);
  void exact(std::string_view name, std::uint64_t value);
  void exact(std::string_view name, std::string_view text);
  /// A machine-dependent rate, higher is better: the guard fails it only
  /// far below the baseline's.
  void timing(std::string_view name, double value);

  std::string workload;
  std::string exact_fields;   ///< rendered `"name": value` members
  std::string timing_fields;  ///< rendered `"name": value` members
};

/// Writes `rows` to options.json, or BENCH_<bench>.json when that is
/// empty, as {"bench": <bench>, "rows": [{"workload": ..., "exact": {...},
/// "timings": {...}}, ...]}. Returns false, after saying why on stderr,
/// when the file cannot be written.
[[nodiscard]] bool write_rows(const Options& options, std::string_view bench,
                              const std::vector<Row>& rows);

/// The bench process's one worker crew, started on first use with one
/// worker per hardware thread. Per-trace loops fan out with
/// pool().for_each; a solve inside such a loop that fans out itself
/// (auto) takes &pool() as SolveOptions::executor, so nested fan-out
/// shares the crew instead of oversubscribing the machine.
[[nodiscard]] SolverPool& pool();

/// The paper's capacity grid: mc..2mc in increments of 0.125 mc.
[[nodiscard]] std::vector<double> capacity_factors();

/// Ratio-to-OMIM samples for one heuristic at one capacity factor.
struct RatioCell {
  HeuristicId id;
  double factor = 1.0;
  std::vector<double> ratios;  ///< one entry per trace
};

/// Evaluates `ids` over `traces` for every factor in `factors`, in
/// parallel over traces on pool(). Each trace uses its own mc. Ratios are
/// makespan / OMIM of that trace.
[[nodiscard]] std::vector<RatioCell> ratio_grid(
    const std::vector<Instance>& traces, const std::vector<double>& factors,
    const std::vector<HeuristicId>& ids);

/// Looks up a cell (by id and factor) in a grid.
[[nodiscard]] const RatioCell* find_cell(const std::vector<RatioCell>& grid,
                                         HeuristicId id, double factor);

/// Renders the boxplot table for one capacity factor (rows = heuristics):
/// the textual equivalent of one panel of the paper's Figs. 9 and 11.
[[nodiscard]] TextTable boxplot_panel(const std::vector<RatioCell>& grid,
                                      const std::vector<HeuristicId>& ids,
                                      double factor);

/// Writes the full grid as tidy CSV (heuristic, factor, trace, ratio) for
/// external plotting. No-op when options.csv_dir is empty.
void write_grid_csv(const Options& options, const std::string& figure,
                    const std::vector<RatioCell>& grid);

/// Writes an arbitrary table as CSV next to the other figure outputs.
void write_table_csv(const Options& options, const std::string& figure,
                     const TextTable& table);

/// Best variant of each family per factor ("Best Static" etc. of
/// Figs. 10/12/13): for each trace, the family's best ratio; summarized
/// over traces.
struct FamilyCurve {
  HeuristicCategory category;
  std::vector<double> median_per_factor;
  std::vector<double> mean_per_factor;
};

[[nodiscard]] std::vector<FamilyCurve> best_variant_curves(
    const std::vector<RatioCell>& grid, const std::vector<double>& factors);

/// Generates the evaluation corpus for a kernel under the options.
[[nodiscard]] std::vector<Instance> corpus(ChemistryKernel kernel,
                                           const Options& options);

}  // namespace dts::bench
