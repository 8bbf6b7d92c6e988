/// Machine sweep — the redesign's headline experiment: the HF and CCSD
/// workloads, generated once as machine-independent byte-annotated
/// traces, re-costed with bind() for EVERY machine in the MachineRegistry
/// and solved. One table row per (kernel, machine): workload shape after
/// binding, auto-winner, makespan statistics and solve throughput.
///
/// A second axis sweeps duplex *asymmetry*: duplex traces are re-bound to
/// duplex-pcie variants whose D2H engine is progressively slower (2x, 4x,
/// 8x), and the channel-load-aware duplex-balance order is evaluated
/// against SCMR (the paper's best dynamic heuristic) on each variant.
///
/// A third axis sweeps *precedence*: the CCSD contraction-chain DAG
/// workload (generate_ccsd_dag_trace) is solved with its edges and
/// relaxed to the precedence-free model on each duplex-capable machine
/// up to the summit-multi-gpu hierarchy, so the scheduler's DAG path has
/// CI-guarded data points from day one.
///
/// The numbers land in BENCH_machine_sweep.json so the perf trajectory of
/// the costing + solving pipeline has data points across PRs; CI checks
/// the deterministic makespan columns against bench/baselines/ via
/// tools/check_bench_baseline.py (the performance-regression guard).
///
///   bench_machine_sweep [--quick] [--traces=N] [--seed=S] [--csv-dir=P]
///                       [--json=FILE]   (default BENCH_machine_sweep.json)

#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/solver.hpp"
#include "model/machine.hpp"
#include "report/stats.hpp"
#include "trace/transforms.hpp"

namespace {

/// Strips a --json=FILE argument before bench::Options sees it.
std::string take_json_flag(int& argc, char** argv) {
  std::string json = "BENCH_machine_sweep.json";
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

struct SweepRow {
  std::string kernel;
  std::string machine;
  std::string winner;
  double median_makespan = 0.0;
  double median_ratio = 0.0;      // makespan / OMIM of the bound trace
  double comm_over_comp = 0.0;    // aggregate shape after binding
  double solves_per_sec = 0.0;
};

/// One point of the duplex-asymmetry axis: SCMR vs the duplex-balance
/// order on a duplex-pcie variant whose D2H engine is `slowdown`x slower.
struct AsymmetryRow {
  std::string kernel;
  double slowdown = 1.0;
  double scmr_median = 0.0;
  double balance_median = 0.0;

  [[nodiscard]] double balance_over_scmr() const {
    return scmr_median > 0.0 ? balance_median / scmr_median : 0.0;
  }
};

/// One point of the precedence (DAG) axis: the CCSD contraction-chain
/// workload solved with its dependency edges against the same tasks
/// relaxed to the paper's precedence-free model. The gap is the price of
/// the edges; both medians are deterministic functions of the seeded
/// corpus, so CI guards them exactly.
struct DagRow {
  std::string kernel;
  std::string machine;
  std::string winner;
  double dag_median = 0.0;
  double relaxed_median = 0.0;

  [[nodiscard]] double dag_over_relaxed() const {
    return relaxed_median > 0.0 ? dag_median / relaxed_median : 0.0;
  }
};

/// duplex-pcie with its D2H bandwidth divided by `slowdown` (1 = the
/// registered preset itself).
dts::Machine asymmetric_duplex_machine(double slowdown) {
  using namespace dts;
  const Machine base = machine_from_name("duplex-pcie");
  std::vector<MachineChannel> channels = base.channels();
  const MachineChannel& d2h = base.channel(kChannelD2H);
  channels[kChannelD2H] =
      affine_channel(d2h.name, d2h.model->zero_byte_latency(),
                     d2h.model->asymptotic_bandwidth() / slowdown);
  return Machine(base.name() + "/d2h-" + std::to_string(int(slowdown)) + "x",
                 std::move(channels));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dts;
  const std::string json_path = take_json_flag(argc, argv);
  const bench::Options options = bench::Options::parse(argc, argv);

  std::printf("machine sweep — %zu traces/kernel across every registered "
              "machine\n\n",
              options.traces);

  std::vector<SweepRow> rows;
  TextTable table({"kernel", "machine", "winner", "median makespan",
                   "median ratio", "comm/comp", "solves/s"});

  for (ChemistryKernel kernel : {ChemistryKernel::kHartreeFock,
                                 ChemistryKernel::kCoupledClusterSD}) {
    // One machine-independent corpus per kernel: generated on the paper
    // machine, then stripped to bytes-only — exactly what a user's
    // measured v3 trace set looks like before re-costing.
    std::vector<Instance> workloads;
    for (const Instance& trace : bench::corpus(kernel, options)) {
      workloads.push_back(strip_comm_times(trace));
    }

    for (const MachineListing& listing : list_machines()) {
      if (listing.name == "cascade") continue;  // alias of "paper"
      const Machine machine = machine_from_name(listing.name);

      SweepRow row;
      row.kernel = std::string(to_string(kernel));
      row.machine = listing.name;

      // Bind once per workload, outside the timed region: the solves/s
      // metric must measure solving, not costing or this aggregation.
      double sum_comm = 0.0, sum_comp = 0.0;
      std::vector<Instance> bound;
      bound.reserve(workloads.size());
      for (const Instance& workload : workloads) {
        bound.push_back(bind(workload, machine));
        const InstanceStats stats = bound.back().stats();
        sum_comm += stats.sum_comm;
        sum_comp += stats.sum_comp;
      }

      std::vector<double> makespans;
      std::vector<double> ratios;
      std::map<std::string, std::size_t> wins;
      const auto start = std::chrono::steady_clock::now();
      for (const Instance& instance : bound) {
        SolveRequest request;
        request.instance = instance;
        request.capacity = 1.5 * instance.min_capacity();
        const SolveResult result = solve(request, "auto");
        makespans.push_back(result.makespan);
        ratios.push_back(result.ratio_to_optimal());
        ++wins[result.winner];
      }
      const double wall =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();

      row.median_makespan = summarize(makespans).median;
      row.median_ratio = summarize(ratios).median;
      row.comm_over_comp = sum_comp > 0.0 ? sum_comm / sum_comp : 0.0;
      row.solves_per_sec =
          wall > 0.0 ? static_cast<double>(workloads.size()) / wall : 0.0;
      std::size_t best = 0;
      for (const auto& [name, count] : wins) {
        if (count > best) {
          best = count;
          row.winner = name;
        }
      }
      rows.push_back(row);

      char makespan_text[32], ratio_text[32], shape_text[32], rate_text[32];
      std::snprintf(makespan_text, sizeof makespan_text, "%.6g s",
                    row.median_makespan);
      std::snprintf(ratio_text, sizeof ratio_text, "%.4f", row.median_ratio);
      std::snprintf(shape_text, sizeof shape_text, "%.3f",
                    row.comm_over_comp);
      std::snprintf(rate_text, sizeof rate_text, "%.1f", row.solves_per_sec);
      table.add_row({row.kernel, row.machine, row.winner, makespan_text,
                     ratio_text, shape_text, rate_text});
    }
  }

  std::printf("%s", table.to_ascii().c_str());

  // ---------------------------------------------- duplex asymmetry axis
  // Duplex traces (input fetches on H2D + result write-backs on D2H),
  // re-bound to duplex-pcie variants with a progressively slower D2H
  // engine: the regime where a channel-load-aware order can beat SCMR.
  std::printf("\nduplex asymmetry — SCMR vs duplex-balance on slowed-D2H "
              "duplex-pcie variants\n\n");
  std::vector<AsymmetryRow> asymmetry;
  TextTable asym_table({"kernel", "d2h slowdown", "SCMR median",
                        "duplex-balance median", "balance/SCMR"});
  for (ChemistryKernel kernel : {ChemistryKernel::kHartreeFock,
                                 ChemistryKernel::kCoupledClusterSD}) {
    TraceConfig duplex_config;
    duplex_config.machine = machine_from_name("duplex-pcie");
    std::vector<Instance> duplex_bytes;
    for (const Instance& trace : generate_process_traces(
             kernel, options.traces, options.seed, duplex_config)) {
      duplex_bytes.push_back(strip_comm_times(trace));
    }
    for (const double slowdown : {1.0, 2.0, 4.0, 8.0}) {
      const Machine machine = asymmetric_duplex_machine(slowdown);
      AsymmetryRow row;
      row.kernel = std::string(to_string(kernel));
      row.slowdown = slowdown;
      std::vector<double> scmr, balance;
      for (const Instance& workload : duplex_bytes) {
        const Instance instance = bind(workload, machine);
        SolveRequest request;
        request.instance = instance;
        request.capacity = 1.5 * instance.min_capacity();
        SolveOptions solve_options;
        solve_options.compute_bounds = false;
        scmr.push_back(solve(request, "SCMR", solve_options).makespan);
        balance.push_back(
            solve(request, "duplex-balance", solve_options).makespan);
      }
      row.scmr_median = summarize(scmr).median;
      row.balance_median = summarize(balance).median;
      asymmetry.push_back(row);

      char slow_text[16], scmr_text[32], bal_text[32], ratio_text[16];
      std::snprintf(slow_text, sizeof slow_text, "%gx", slowdown);
      std::snprintf(scmr_text, sizeof scmr_text, "%.6g s", row.scmr_median);
      std::snprintf(bal_text, sizeof bal_text, "%.6g s", row.balance_median);
      std::snprintf(ratio_text, sizeof ratio_text, "%.4f",
                    row.balance_over_scmr());
      asym_table.add_row({row.kernel, slow_text, scmr_text, bal_text,
                          ratio_text});
    }
  }
  std::printf("%s", asym_table.to_ascii().c_str());

  // ------------------------------------------------ precedence (DAG) axis
  // CCSD contraction chains (generate_ccsd_dag_trace): the same tasks
  // solved with their dependency edges and relaxed to the precedence-free
  // model, across the duplex-capable machines up to the multi-GPU
  // hierarchy. dag/relaxed quantifies what the edges cost on each
  // machine; both columns are seed-deterministic and CI-guarded.
  std::printf("\nDAG axis — CCSD contraction chains, with edges vs "
              "relaxed, per machine\n\n");
  std::vector<DagRow> dag_rows;
  TextTable dag_table({"kernel", "machine", "winner", "DAG median",
                       "relaxed median", "dag/relaxed"});
  {
    TraceConfig dag_config;
    dag_config.machine = machine_from_name("duplex-pcie");
    std::vector<Instance> dag_bytes;
    for (std::size_t p = 0; p < options.traces; ++p) {
      TraceConfig config = dag_config;
      config.seed = options.seed + p;
      dag_bytes.push_back(strip_comm_times(generate_ccsd_dag_trace(config)));
    }
    for (const char* name :
         {"duplex-pcie", "summit-node", "nvlink", "summit-multi-gpu"}) {
      const Machine machine = machine_from_name(name);
      DagRow row;
      row.kernel = "CCSD-DAG";
      row.machine = name;
      std::vector<double> dag_makespans, relaxed_makespans;
      std::map<std::string, std::size_t> wins;
      for (const Instance& workload : dag_bytes) {
        const Instance instance = bind(workload, machine);
        SolveRequest request;
        request.instance = instance;
        request.capacity = 1.5 * instance.min_capacity();
        const SolveResult with_edges = solve(request, "auto");
        dag_makespans.push_back(with_edges.makespan);
        ++wins[with_edges.winner];
        request.instance = instance.without_dependencies();
        relaxed_makespans.push_back(solve(request, "auto").makespan);
      }
      row.dag_median = summarize(dag_makespans).median;
      row.relaxed_median = summarize(relaxed_makespans).median;
      std::size_t best = 0;
      for (const auto& [winner, count] : wins) {
        if (count > best) {
          best = count;
          row.winner = winner;
        }
      }
      dag_rows.push_back(row);

      char dag_text[32], relaxed_text[32], gap_text[16];
      std::snprintf(dag_text, sizeof dag_text, "%.6g s", row.dag_median);
      std::snprintf(relaxed_text, sizeof relaxed_text, "%.6g s",
                    row.relaxed_median);
      std::snprintf(gap_text, sizeof gap_text, "%.4f",
                    row.dag_over_relaxed());
      dag_table.add_row({row.kernel, row.machine, row.winner, dag_text,
                         relaxed_text, gap_text});
    }
  }
  std::printf("%s", dag_table.to_ascii().c_str());

  // Hand-rolled JSON (no third-party deps in this container).
  std::ofstream json(json_path);
  if (!json) {
    std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
    return 1;
  }
  json << "{\n  \"bench\": \"machine_sweep\",\n  \"traces_per_kernel\": "
       << options.traces << ",\n  \"rows\": [\n";
  json.precision(12);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& row = rows[i];
    json << "    {\"kernel\": \"" << row.kernel << "\", \"machine\": \""
         << row.machine << "\", \"winner\": \"" << row.winner
         << "\", \"median_makespan_seconds\": " << row.median_makespan
         << ", \"median_ratio_to_omim\": " << row.median_ratio
         << ", \"comm_over_comp\": " << row.comm_over_comp
         << ", \"solves_per_second\": " << row.solves_per_sec << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"asymmetry\": [\n";
  for (std::size_t i = 0; i < asymmetry.size(); ++i) {
    const AsymmetryRow& row = asymmetry[i];
    json << "    {\"kernel\": \"" << row.kernel
         << "\", \"d2h_slowdown\": " << row.slowdown
         << ", \"scmr_median_makespan_seconds\": " << row.scmr_median
         << ", \"duplex_balance_median_makespan_seconds\": "
         << row.balance_median
         << ", \"balance_over_scmr\": " << row.balance_over_scmr() << "}"
         << (i + 1 < asymmetry.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"dag\": [\n";
  for (std::size_t i = 0; i < dag_rows.size(); ++i) {
    const DagRow& row = dag_rows[i];
    json << "    {\"kernel\": \"" << row.kernel << "\", \"dag_machine\": \""
         << row.machine << "\", \"winner\": \"" << row.winner
         << "\", \"dag_median_makespan_seconds\": " << row.dag_median
         << ", \"relaxed_median_makespan_seconds\": " << row.relaxed_median
         << ", \"dag_over_relaxed\": " << row.dag_over_relaxed() << "}"
         << (i + 1 < dag_rows.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::printf("\nwrote %s (%zu rows + %zu asymmetry rows + %zu DAG rows)\n",
              json_path.c_str(), rows.size(), asymmetry.size(),
              dag_rows.size());
  return 0;
}
