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
/// every row against bench/baselines/ via tools/check_bench_baseline.py
/// (the performance-regression guard): winners, makespans and ratios
/// exactly, solves/s laxly.
///
///   bench_machine_sweep [--quick] [--traces=N] [--seed=S] [--csv-dir=P]
///   rows: BENCH_machine_sweep.json, or the file bench::Options names

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/solver.hpp"
#include "model/machine.hpp"
#include "report/stats.hpp"
#include "trace/transforms.hpp"

namespace {

/// The name that wins most often (ties to the first in name order).
std::string most_frequent(const std::map<std::string, std::size_t>& wins) {
  std::string winner;
  std::size_t best = 0;
  for (const auto& [name, count] : wins) {
    if (count > best) {
      best = count;
      winner = name;
    }
  }
  return winner;
}

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
  const bench::Options options = bench::Options::parse(argc, argv);
  const std::uint64_t traces = options.traces;

  std::printf("machine sweep — %zu traces/kernel across every registered "
              "machine\n\n",
              options.traces);

  std::vector<bench::Row> rows;
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
      const std::string kernel_name(to_string(kernel));

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

      const std::string winner = most_frequent(wins);
      const double median_makespan = summarize(makespans).median;
      const double median_ratio = summarize(ratios).median;
      const double comm_over_comp = sum_comp > 0.0 ? sum_comm / sum_comp : 0.0;
      const double solves_per_sec =
          wall > 0.0 ? static_cast<double>(workloads.size()) / wall : 0.0;

      bench::Row& row = rows.emplace_back(kernel_name + "/" + listing.name);
      row.exact("traces", traces);
      row.exact("winner", winner);
      row.exact("median_makespan_seconds", median_makespan);
      row.exact("median_ratio_to_omim", median_ratio);
      row.exact("comm_over_comp", comm_over_comp);
      row.timing("solves_per_second", solves_per_sec);

      char makespan_text[32], ratio_text[32], shape_text[32], rate_text[32];
      std::snprintf(makespan_text, sizeof makespan_text, "%.6g s",
                    median_makespan);
      std::snprintf(ratio_text, sizeof ratio_text, "%.4f", median_ratio);
      std::snprintf(shape_text, sizeof shape_text, "%.3f", comm_over_comp);
      std::snprintf(rate_text, sizeof rate_text, "%.1f", solves_per_sec);
      table.add_row({kernel_name, listing.name, winner, makespan_text,
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
      const std::string kernel_name(to_string(kernel));
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
      const double scmr_median = summarize(scmr).median;
      const double balance_median = summarize(balance).median;
      const double balance_over_scmr =
          scmr_median > 0.0 ? balance_median / scmr_median : 0.0;

      bench::Row& row = rows.emplace_back(kernel_name + "/" + machine.name());
      row.exact("traces", traces);
      row.exact("scmr_median_makespan_seconds", scmr_median);
      row.exact("duplex_balance_median_makespan_seconds", balance_median);
      row.exact("balance_over_scmr", balance_over_scmr);

      char slow_text[16], scmr_text[32], bal_text[32], ratio_text[16];
      std::snprintf(slow_text, sizeof slow_text, "%gx", slowdown);
      std::snprintf(scmr_text, sizeof scmr_text, "%.6g s", scmr_median);
      std::snprintf(bal_text, sizeof bal_text, "%.6g s", balance_median);
      std::snprintf(ratio_text, sizeof ratio_text, "%.4f", balance_over_scmr);
      asym_table.add_row({kernel_name, slow_text, scmr_text, bal_text,
                          ratio_text});
    }
  }
  std::printf("%s", asym_table.to_ascii().c_str());

  // ------------------------------------------------ precedence (DAG) axis
  // CCSD contraction chains (generate_ccsd_dag_trace): the same tasks
  // solved with their dependency edges and relaxed to the precedence-free
  // model, across the duplex-capable machines up to the multi-GPU
  // hierarchy. dag/relaxed quantifies what the edges cost on each
  // machine; both medians are seed-deterministic and CI-guarded.
  std::printf("\nDAG axis — CCSD contraction chains, with edges vs "
              "relaxed, per machine\n\n");
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
      const std::string winner = most_frequent(wins);
      const double dag_median = summarize(dag_makespans).median;
      const double relaxed_median = summarize(relaxed_makespans).median;
      const double dag_over_relaxed =
          relaxed_median > 0.0 ? dag_median / relaxed_median : 0.0;

      bench::Row& row = rows.emplace_back(std::string("CCSD-DAG/") + name);
      row.exact("traces", traces);
      row.exact("winner", winner);
      row.exact("dag_median_makespan_seconds", dag_median);
      row.exact("relaxed_median_makespan_seconds", relaxed_median);
      row.exact("dag_over_relaxed", dag_over_relaxed);

      char dag_text[32], relaxed_text[32], gap_text[16];
      std::snprintf(dag_text, sizeof dag_text, "%.6g s", dag_median);
      std::snprintf(relaxed_text, sizeof relaxed_text, "%.6g s",
                    relaxed_median);
      std::snprintf(gap_text, sizeof gap_text, "%.4f", dag_over_relaxed);
      dag_table.add_row({"CCSD-DAG", name, winner, dag_text, relaxed_text,
                         gap_text});
    }
  }
  std::printf("%s\n", dag_table.to_ascii().c_str());

  return bench::write_rows(options, "machine_sweep", rows) ? 0 : 1;
}
