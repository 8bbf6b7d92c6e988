/// CPU <-> GPU duplex offload — the multi-channel model in action.
///
/// The paper's conclusion singles out GPUs with one DMA engine per
/// direction as the natural next application of its heuristics. This
/// example builds a symmetric offload workload (every kernel fetches its
/// inputs H2D, computes, and writes its result back D2H), then solves it
/// twice with the same solver:
///
///   * half duplex — every transfer forced onto one shared engine, the
///     paper's original single-link model (merged_channels);
///   * full duplex — fetches on the H2D engine, write-backs on the D2H
///     engine, so the two directions overlap.
///
/// The makespan gap is the value of the second copy engine; the gantt
/// charts show write-backs sliding under the fetches.
///
///   $ ./duplex_offload

#include <cstdio>
#include <string>
#include <vector>

#include "core/bounds.hpp"
#include "core/solver.hpp"
#include "report/table.hpp"
#include "support/rng.hpp"
#include "model/machine.hpp"
#include "trace/transforms.hpp"

int main() {
  using namespace dts;

  const Machine gpu = machine_from_name("duplex-pcie");
  Rng rng(11);

  // A symmetric, transfer-bound pipeline stage: each kernel pulls an
  // activation tile in, runs a lean elementwise/GEMV-ish kernel, and
  // returns a result of comparable size — H2D and D2H loads balance and
  // together exceed the compute time, the case where a per-direction
  // engine pays off most.
  std::vector<Task> tasks;
  for (int i = 0; i < 40; ++i) {
    const double in_bytes = rng.uniform(64e6, 512e6);
    const double out_bytes = in_bytes * rng.uniform(0.7, 1.0);
    tasks.push_back(Task{.id = 0,
                         .comm = gpu.transfer_time(kChannelH2D, in_bytes),
                         .comp = gpu.compute_time(rng.uniform(0.1e12, 0.4e12)),
                         .mem = in_bytes,
                         .channel = kChannelH2D,
                         .name = "fetch_" + std::to_string(i)});
    tasks.push_back(Task{.id = 0,
                         .comm = gpu.transfer_time(kChannelD2H, out_bytes),
                         .comp = 0.0,
                         .mem = out_bytes,
                         .channel = kChannelD2H,
                         .name = "wb_" + std::to_string(i)});
  }
  const Instance duplex(std::move(tasks));
  const Instance single = merged_channels(duplex);

  const Bounds b = compute_bounds(duplex);
  std::printf("duplex offload workload: %zu tasks (%zu fetches + write-backs)\n",
              duplex.size(), duplex.size() / 2);
  std::printf("H2D load %s, D2H load %s, GPU busy %s\n\n",
              format_seconds(b.sum_comm_per_channel[kChannelH2D]).c_str(),
              format_seconds(b.sum_comm_per_channel[kChannelD2H]).c_str(),
              format_seconds(b.sum_comp).c_str());

  TextTable table({"device mem", "solver", "half duplex", "full duplex",
                   "saved"});
  const Mem mc = duplex.min_capacity();
  for (double factor : {1.25, 2.0, 4.0}) {
    for (const char* solver : {"SCMR", "auto"}) {
      const SolveResult serialized =
          solve({.instance = single, .capacity = factor * mc}, solver);
      const SolveResult overlapped = solve(
          {.instance = duplex, .capacity = factor * mc, .machine = gpu},
          solver);
      table.add_row(
          {format_si_bytes(factor * mc), solver,
           format_seconds(serialized.makespan),
           format_seconds(overlapped.makespan),
           format_fixed(100.0 * (serialized.makespan - overlapped.makespan) /
                            serialized.makespan,
                        1) +
               "%"});
    }
  }
  std::printf("%s", table.to_ascii().c_str());
  std::printf(
      "\nthe full-duplex makespans are strictly lower: the D2H engine\n"
      "drains results while the H2D engine keeps feeding the GPU, which\n"
      "a single half-duplex link must serialize.\n");
  return 0;
}
