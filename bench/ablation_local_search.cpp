/// Ablation: how much makespan do the paper's one-shot heuristics leave on
/// the table? Local search (heuristics/local_search.hpp) refines the best
/// registry schedule under the true memory-constrained engine; the
/// remaining gap to the capacity-aware lower bound brackets the possible
/// further improvement. Run on a subsample of the corpus (local search is
/// ~1000x the cost of a heuristic).

#include <cstdio>

#include "bench_common.hpp"
#include "exact/lower_bounds.hpp"
#include "heuristics/local_search.hpp"

int main(int argc, char** argv) {
  using namespace dts;
  bench::Options options = bench::Options::parse(argc, argv);
  options.traces = std::min<std::size_t>(options.traces, 12);

  for (ChemistryKernel kernel :
       {ChemistryKernel::kHartreeFock, ChemistryKernel::kCoupledClusterSD}) {
    const std::vector<Instance> traces = bench::corpus(kernel, options);
    TextTable table({"capacity", "best heuristic (median)",
                     "after local search", "gain", "lower bound gap left"});
    for (double factor : {1.0, 1.5, 2.0}) {
      std::vector<double> heuristic_r(traces.size());
      std::vector<double> improved_r(traces.size());
      std::vector<double> bound_gap(traces.size());
      bench::pool().for_each(traces.size(), [&](std::size_t t) {
        const Mem capacity = traces[t].min_capacity() * factor;
        const CapacityAwareBounds lb =
            capacity_aware_bounds(traces[t], capacity);
        LocalSearchOptions ls;
        ls.max_iterations = 4000;
        ls.max_no_improve = 800;
        ls.seed = t + 1;
        const LocalSearchResult res =
            schedule_local_search(traces[t], capacity, ls);
        heuristic_r[t] = res.initial_makespan / lb.omim;
        improved_r[t] = res.makespan / lb.omim;
        bound_gap[t] = res.makespan / lb.combined - 1.0;
      });
      const double med_h = summarize(std::move(heuristic_r)).median;
      const double med_i = summarize(std::move(improved_r)).median;
      const double med_gap = summarize(std::move(bound_gap)).median;
      table.add_row({format_fixed(factor, 3) + " mc", format_fixed(med_h, 4),
                     format_fixed(med_i, 4),
                     format_fixed(100.0 * (1.0 - med_i / med_h), 2) + "%",
                     format_fixed(100.0 * med_gap, 2) + "%"});
    }
    std::printf("Ablation (local-search headroom) — %s over %zu traces:\n%s\n",
                std::string(to_string(kernel)).c_str(), traces.size(),
                table.to_ascii().c_str());
    bench::write_table_csv(options,
                           std::string("ablation_local_search_") +
                               std::string(to_string(kernel)),
                           table);
  }
  return 0;
}
