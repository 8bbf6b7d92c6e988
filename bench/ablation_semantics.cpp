/// Ablation: memory-release semantics (DESIGN.md §7). The library releases
/// a task's memory at its computation-finish instant and makes it
/// available to a transfer starting at that same instant (half-open
/// intervals) — the semantics the paper's Fig. 2 reduction pattern
/// requires. This ablation quantifies what the alternative (closed
/// intervals: a transfer must start strictly after the release, emulated
/// by shrinking the capacity by epsilon) costs across the corpus.

#include <cstdio>

#include "bench_common.hpp"
#include "core/johnson.hpp"

int main(int argc, char** argv) {
  using namespace dts;
  const bench::Options options = bench::Options::parse(argc, argv);

  for (ChemistryKernel kernel :
       {ChemistryKernel::kHartreeFock, ChemistryKernel::kCoupledClusterSD}) {
    const std::vector<Instance> traces = bench::corpus(kernel, options);
    TextTable table({"capacity", "heuristic", "half-open median",
                     "closed median", "penalty"});
    for (double factor : {1.0, 1.5, 2.0}) {
      for (HeuristicId id :
           {HeuristicId::kOOSIM, HeuristicId::kLCMR, HeuristicId::kOOMAMR}) {
        std::vector<double> open_r(traces.size());
        std::vector<double> closed_r(traces.size());
        bench::pool().for_each(traces.size(), [&](std::size_t t) {
          const Time lower = omim(traces[t]);
          const Mem mc = traces[t].min_capacity();
          // Closed-interval emulation: shave one epsilon-task off the
          // capacity so exact back-to-back reuse no longer fits. The
          // smallest footprint in the trace is the natural epsilon.
          Mem eps = mc;
          for (const Task& task : traces[t]) {
            if (task.mem > 0.0) eps = std::min(eps, task.mem);
          }
          const Mem cap = mc * factor;
          // Clamp: the largest task must still fit, or no schedule exists.
          const Mem closed_cap = std::max(cap - 0.5 * eps, mc);
          open_r[t] = heuristic_makespan(id, traces[t], cap) / lower;
          closed_r[t] = heuristic_makespan(id, traces[t], closed_cap) / lower;
        });
        const double open_med = summarize(std::move(open_r)).median;
        const double closed_med = summarize(std::move(closed_r)).median;
        table.add_row({format_fixed(factor, 3) + " mc",
                       std::string(name_of(id)), format_fixed(open_med, 4),
                       format_fixed(closed_med, 4),
                       format_fixed(100.0 * (closed_med / open_med - 1.0), 2) +
                           "%"});
      }
    }
    std::printf("Ablation (release semantics) — %s over %zu traces:\n%s\n",
                std::string(to_string(kernel)).c_str(), traces.size(),
                table.to_ascii().c_str());
    bench::write_table_csv(options,
                           std::string("ablation_semantics_") +
                               std::string(to_string(kernel)),
                           table);
  }
  return 0;
}
