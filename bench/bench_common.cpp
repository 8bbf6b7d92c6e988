#include "bench_common.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "core/johnson.hpp"
#include "core/solver.hpp"
#include "report/csv.hpp"
#include "support/text.hpp"

namespace dts::bench {

namespace {

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "%s; --help lists the options\n", message.c_str());
  std::exit(2);
}

/// The whole of `text` as an unsigned decimal, or a usage error naming
/// `flag`: no sign, no trailing characters, no wrap past 2^64 - 1.
std::uint64_t uint_flag(std::string_view flag, const std::string& text) {
  const std::optional<std::uint64_t> value = parse_uint(text);
  if (!value) {
    usage_error("invalid value for " + std::string(flag) + ": '" + text +
                "'");
  }
  return *value;
}

}  // namespace

Options Options::parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value_of = [&](const std::string& prefix) -> std::optional<std::string> {
      if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
      return std::nullopt;
    };
    if (const auto traces = value_of("--traces=")) {
      options.traces = uint_flag("--traces", *traces);
      if (options.traces == 0) {
        usage_error("invalid value for --traces: '0' (at least 1 trace)");
      }
    } else if (const auto seed = value_of("--seed=")) {
      options.seed = uint_flag("--seed", *seed);
    } else if (const auto dir = value_of("--csv-dir=")) {
      options.csv_dir = *dir;
    } else if (const auto json = value_of("--json=")) {
      options.json = *json;
    } else if (arg == "--quick") {
      options.traces = 25;
      options.quick = true;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "options: --traces=N (default 150)  --seed=S  --csv-dir=PATH "
          "(empty disables)  --quick (25 traces)  --json=FILE (CI benches; "
          "default BENCH_<bench>.json)\n");
      std::exit(0);
    } else {
      usage_error("unknown option: " + arg);
    }
  }
  return options;
}

namespace {

void append_json_string(std::string& out, std::string_view text) {
  out += '"';
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
}

void append_member_name(std::string& fields, std::string_view name) {
  if (!fields.empty()) fields += ", ";
  append_json_string(fields, name);
  fields += ": ";
}

}  // namespace

void Row::exact(std::string_view name, double value) {
  append_member_name(exact_fields, name);
  append_double(exact_fields, value);
}

void Row::exact(std::string_view name, std::uint64_t value) {
  append_member_name(exact_fields, name);
  append_uint(exact_fields, value);
}

void Row::exact(std::string_view name, std::string_view text) {
  append_member_name(exact_fields, name);
  append_json_string(exact_fields, text);
}

void Row::timing(std::string_view name, double value) {
  append_member_name(timing_fields, name);
  append_double(timing_fields, value);
}

bool write_rows(const Options& options, std::string_view bench,
                const std::vector<Row>& rows) {
  std::string text = "{\n  \"bench\": ";
  append_json_string(text, bench);
  text += ",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    text += "    {\"workload\": ";
    append_json_string(text, rows[i].workload);
    text += ", \"exact\": {" + rows[i].exact_fields + "}, \"timings\": {" +
            rows[i].timing_fields + "}}";
    text += i + 1 < rows.size() ? ",\n" : "\n";
  }
  text += "  ]\n}\n";

  const std::string path = options.json.empty()
                               ? "BENCH_" + std::string(bench) + ".json"
                               : options.json;
  std::ofstream out(path, std::ios::binary);
  out << text;
  out.close();
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("wrote %s (%zu rows)\n", path.c_str(), rows.size());
  return true;
}

SolverPool& pool() {
  static SolverPool crew;
  return crew;
}

std::vector<double> capacity_factors() {
  std::vector<double> factors;
  for (int k = 0; k <= 8; ++k) factors.push_back(1.0 + 0.125 * k);
  return factors;
}

std::vector<RatioCell> ratio_grid(const std::vector<Instance>& traces,
                                  const std::vector<double>& factors,
                                  const std::vector<HeuristicId>& ids) {
  // Per-trace OMIM and mc, computed once.
  std::vector<Time> omims(traces.size());
  std::vector<Mem> mcs(traces.size());
  pool().for_each(traces.size(), [&](std::size_t t) {
    omims[t] = omim(traces[t]);
    mcs[t] = traces[t].min_capacity();
  });

  std::vector<RatioCell> grid;
  grid.reserve(factors.size() * ids.size());
  for (double factor : factors) {
    for (HeuristicId id : ids) {
      grid.push_back(RatioCell{id, factor, std::vector<double>(traces.size())});
    }
  }
  // Parallelize over traces; one SolveRequest per trace, re-aimed at each
  // capacity, is reused across heuristics. Bounds are precomputed above,
  // so the solve() calls skip them.
  SolveOptions options;
  options.compute_bounds = false;
  pool().for_each(traces.size(), [&](std::size_t t) {
    SolveRequest request;
    request.instance = traces[t];
    for (std::size_t fi = 0; fi < factors.size(); ++fi) {
      request.capacity = mcs[t] * factors[fi];
      for (std::size_t hi = 0; hi < ids.size(); ++hi) {
        const Time ms =
            solve(request, name_of(ids[hi]), options).makespan;
        grid[fi * ids.size() + hi].ratios[t] =
            omims[t] > 0.0 ? ms / omims[t] : 1.0;
      }
    }
  });
  return grid;
}

const RatioCell* find_cell(const std::vector<RatioCell>& grid, HeuristicId id,
                           double factor) {
  for (const RatioCell& cell : grid) {
    if (cell.id == id && cell.factor == factor) return &cell;
  }
  return nullptr;
}

TextTable boxplot_panel(const std::vector<RatioCell>& grid,
                        const std::vector<HeuristicId>& ids, double factor) {
  TextTable table({"heuristic", "min", "q1", "median", "q3", "max",
                   "outliers"});
  for (HeuristicId id : ids) {
    const RatioCell* cell = find_cell(grid, id, factor);
    if (cell == nullptr) continue;
    const BoxplotSummary s = summarize(cell->ratios);
    table.add_row({std::string(name_of(id)), format_fixed(s.min, 4),
                   format_fixed(s.q1, 4), format_fixed(s.median, 4),
                   format_fixed(s.q3, 4), format_fixed(s.max, 4),
                   std::to_string(s.outliers.size())});
  }
  return table;
}

namespace {

std::optional<std::filesystem::path> csv_path(const Options& options,
                                              const std::string& figure) {
  if (options.csv_dir.empty()) return std::nullopt;
  std::filesystem::create_directories(options.csv_dir);
  return std::filesystem::path(options.csv_dir) / (figure + ".csv");
}

}  // namespace

void write_grid_csv(const Options& options, const std::string& figure,
                    const std::vector<RatioCell>& grid) {
  const auto path = csv_path(options, figure);
  if (!path) return;
  const std::vector<std::string> header{"heuristic", "capacity_factor",
                                        "trace", "ratio_to_omim"};
  std::vector<std::vector<std::string>> rows;
  for (const RatioCell& cell : grid) {
    for (std::size_t t = 0; t < cell.ratios.size(); ++t) {
      rows.push_back({std::string(name_of(cell.id)),
                      format_fixed(cell.factor, 3), std::to_string(t),
                      format_fixed(cell.ratios[t], 6)});
    }
  }
  write_csv_file(*path, header, rows);
  std::printf("[csv] %s\n", path->c_str());
}

void write_table_csv(const Options& options, const std::string& figure,
                     const TextTable& table) {
  const auto path = csv_path(options, figure);
  if (!path) return;
  write_csv_file(*path, table.headers(), table.body());
  std::printf("[csv] %s\n", path->c_str());
}

std::vector<FamilyCurve> best_variant_curves(
    const std::vector<RatioCell>& grid, const std::vector<double>& factors) {
  std::vector<FamilyCurve> curves;
  for (HeuristicCategory cat :
       {HeuristicCategory::kBaseline, HeuristicCategory::kStatic,
        HeuristicCategory::kDynamic, HeuristicCategory::kCorrected}) {
    FamilyCurve curve;
    curve.category = cat;
    const std::vector<HeuristicId> family = heuristics_in(cat);
    for (double factor : factors) {
      // Per trace, take the family's best ratio, then summarize.
      std::vector<double> best;
      for (HeuristicId id : family) {
        const RatioCell* cell = find_cell(grid, id, factor);
        if (cell == nullptr) continue;
        if (best.empty()) {
          best = cell->ratios;
        } else {
          for (std::size_t t = 0; t < best.size(); ++t) {
            best[t] = std::min(best[t], cell->ratios[t]);
          }
        }
      }
      const BoxplotSummary s = summarize(std::move(best));
      curve.median_per_factor.push_back(s.median);
      curve.mean_per_factor.push_back(s.mean);
    }
    curves.push_back(std::move(curve));
  }
  return curves;
}

std::vector<Instance> corpus(ChemistryKernel kernel, const Options& options) {
  return generate_process_traces(kernel, options.traces, options.seed);
}

}  // namespace dts::bench
