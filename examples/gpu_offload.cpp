/// CPU -> GPU offload ordering — the scenario the paper's conclusion names
/// as the next target for these heuristics ("overlapping CPU-GPU
/// communications with computations", one copy engine per direction).
///
/// A training-style inference batch: kernels need their input tensors in
/// GPU memory before launch; the PCIe copy engine moves one tensor at a
/// time; GPU memory is scarce. Deciding the order of H2D transfers is
/// exactly problem DT with M' = host RAM, M = device RAM, P = the GPU.
///
///   $ ./gpu_offload

#include <cstdio>
#include <vector>

#include "core/bounds.hpp"
#include "core/recommend.hpp"
#include "core/registry.hpp"
#include "core/solver.hpp"
#include "report/gantt.hpp"
#include "report/table.hpp"
#include "support/rng.hpp"
#include "model/machine.hpp"

int main() {
  using namespace dts;

  const Machine gpu = machine_from_name("pcie-gpu");
  Rng rng(7);

  // A mixed kernel queue: big embedding-table gathers (transfer-bound),
  // GEMM-heavy attention blocks (compute-bound) and small elementwise ops.
  std::vector<Task> kernels;
  for (int i = 0; i < 48; ++i) {
    const double pick = rng.next_double();
    Task t;
    if (pick < 0.3) {  // embedding gather: 256-1024 MB in, light compute
      const double bytes = rng.uniform(256e6, 1024e6);
      t = Task{.id = 0,
               .comm = gpu.transfer_time(kChannelH2D, bytes),
               .comp = gpu.streaming_time(bytes) * 0.5,
               .mem = bytes,
               .comm_bytes = bytes,
               .name = "gather_" + std::to_string(i)};
    } else if (pick < 0.75) {  // attention GEMM: modest weights, heavy flops
      const double bytes = rng.uniform(32e6, 128e6);
      const double flops = rng.uniform(2e12, 8e12);
      t = Task{.id = 0,
               .comm = gpu.transfer_time(kChannelH2D, bytes),
               .comp = gpu.compute_time(flops),
               .mem = bytes,
               .comm_bytes = bytes,
               .name = "gemm_" + std::to_string(i)};
    } else {  // elementwise epilogue
      const double bytes = rng.uniform(8e6, 32e6);
      t = Task{.id = 0,
               .comm = gpu.transfer_time(kChannelH2D, bytes),
               .comp = gpu.streaming_time(bytes),
               .mem = bytes,
               .comm_bytes = bytes,
               .name = "ew_" + std::to_string(i)};
    }
    kernels.push_back(std::move(t));
  }
  const Instance inst(std::move(kernels));

  const Bounds bounds = compute_bounds(inst);
  std::printf("kernel queue: %zu kernels, largest input %s\n", inst.size(),
              format_si_bytes(inst.min_capacity()).c_str());
  std::printf("PCIe busy %s, GPU busy %s -> up to %.0f%% of the sequential "
              "time can be hidden\n\n",
              format_seconds(bounds.sum_comm).c_str(),
              format_seconds(bounds.sum_comp).c_str(),
              100.0 * bounds.max_overlap_fraction());

  // Sweep device-memory budgets: from "exactly the largest tensor" (harsh)
  // to 4x that (comfortable).
  TextTable table({"device mem", "naive FIFO", "best heuristic", "makespan",
                   "vs FIFO", "vs lower bound"});
  for (double factor : {1.0, 1.5, 2.0, 4.0}) {
    // One dts::solve() call per budget: the auto solver tries every
    // registered heuristic; the FIFO baseline is its first outcome ("OS").
    const SolveResult best =
        solve({.instance = inst, .capacity = factor * inst.min_capacity()},
              "auto");
    const Mem budget = factor * inst.min_capacity();
    Time fifo = kInfiniteTime;
    for (const CandidateOutcome& o : best.outcomes) {
      if (o.name == "OS") fifo = o.makespan;
    }
    table.add_row({format_si_bytes(budget), format_seconds(fifo),
                   best.winner, format_seconds(best.makespan),
                   format_fixed(100.0 * (fifo - best.makespan) / fifo, 1) + "%",
                   format_fixed(best.makespan / bounds.omim_lower, 3) + "x"});
  }
  std::printf("%s\n", table.to_ascii().c_str());

  const Mem budget = 1.5 * inst.min_capacity();
  const Recommendation rec = recommend(inst, budget);
  std::printf("recommended policy at 1.5x: %s (%s)\n",
              std::string(name_of(rec.primary)).c_str(), rec.rationale.c_str());

  const SolveResult res = solve({.instance = inst, .capacity = budget},
                                std::string(name_of(rec.primary)));
  std::printf("\ncopy-engine / GPU timeline under %s:\n%s",
              std::string(name_of(rec.primary)).c_str(),
              render_gantt(inst, res.schedule,
                           {.width = 72, .show_legend = false})
                  .c_str());

  // The tensor sizes above are machine independent (Task::comm_bytes), so
  // re-costing the same queue for a different interconnect is a one-line
  // machine swap: SolveRequest::machine re-binds every transfer through
  // the named machine's performance model before solving.
  std::printf("\nsame queue, other interconnects (device mem 1.5x):\n");
  TextTable sweep({"machine", "winner", "makespan"});
  for (const char* machine :
       {"pcie-gpu", "duplex-pcie", "summit-node", "nvlink"}) {
    SolveRequest request{.instance = inst, .capacity = budget};
    request.machine = machine;
    const SolveResult swept = solve(request, "auto");
    sweep.add_row({machine, swept.winner, format_seconds(swept.makespan)});
  }
  std::printf("%s", sweep.to_ascii().c_str());
  return 0;
}
