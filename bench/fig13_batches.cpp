/// Fig. 13 — scheduling in batches of 100 tasks: the best variant of each
/// family when the scheduler only sees 100 tasks at a time (paper §6.3),
/// for both kernels. Shape to reproduce: same family ordering as the
/// full-visibility Figs. 10/12 — corrections variants reach the most
/// overlap.

#include <cstdio>

#include "bench_common.hpp"
#include "core/johnson.hpp"
#include "core/solver.hpp"

namespace {

constexpr std::size_t kBatch = 100;

}  // namespace

int main(int argc, char** argv) {
  using namespace dts;
  const bench::Options options = bench::Options::parse(argc, argv);

  for (ChemistryKernel kernel :
       {ChemistryKernel::kHartreeFock, ChemistryKernel::kCoupledClusterSD}) {
    const std::vector<Instance> traces = bench::corpus(kernel, options);
    const std::vector<double> factors = bench::capacity_factors();

    std::vector<Time> omims(traces.size());
    std::vector<Mem> mcs(traces.size());
    bench::pool().for_each(traces.size(), [&](std::size_t t) {
      omims[t] = omim(traces[t]);
      mcs[t] = traces[t].min_capacity();
    });

    // Per family and factor: median over traces of the family's best
    // batched ratio.
    TextTable table({"capacity", "OS", "Best Static", "Best Dynamic",
                     "Best Static Dynamic"});
    for (double factor : factors) {
      std::vector<std::string> row{format_fixed(factor, 3) + " mc"};
      for (HeuristicCategory cat :
           {HeuristicCategory::kBaseline, HeuristicCategory::kStatic,
            HeuristicCategory::kDynamic, HeuristicCategory::kCorrected}) {
        const std::vector<HeuristicId> family = heuristics_in(cat);
        std::vector<double> best(traces.size());
        SolveOptions solve_options;
        solve_options.compute_bounds = false;
        bench::pool().for_each(traces.size(), [&](std::size_t t) {
          SolveRequest request;
          request.instance = traces[t];
          request.capacity = mcs[t] * factor;
          request.batch_size = kBatch;  // §6.3 visibility window
          double best_ratio = kInfiniteTime;
          for (HeuristicId id : family) {
            const Time ms = solve(request, name_of(id), solve_options).makespan;
            best_ratio = std::min(best_ratio, ms / omims[t]);
          }
          best[t] = best_ratio;
        });
        row.push_back(format_fixed(summarize(std::move(best)).median, 4));
      }
      table.add_row(std::move(row));
      std::printf(".");
      std::fflush(stdout);
    }
    std::printf("\nFig. 13 — %s, batches of %zu tasks (median best ratio "
                "per family over %zu traces):\n%s\n",
                std::string(to_string(kernel)).c_str(), kBatch, traces.size(),
                table.to_ascii().c_str());
    bench::write_table_csv(options,
                           std::string("fig13_batches_") +
                               std::string(to_string(kernel)),
                           table);
  }
  return 0;
}
