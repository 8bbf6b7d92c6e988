/// Fig. 4 / Table 3 — the six static-order schedules on the Table 3
/// instance with capacity 6, including the unconstrained OMIM schedule.
/// Regenerates every timeline of the figure.

#include <cstdio>

#include "bench_common.hpp"
#include "core/johnson.hpp"
#include "core/simulate.hpp"
#include "heuristics/static_orders.hpp"
#include "report/gantt.hpp"

int main(int argc, char** argv) {
  using namespace dts;
  const bench::Options options = bench::Options::parse(argc, argv);

  const Instance inst =
      Instance::from_comm_comp({{3, 2}, {1, 3}, {4, 4}, {2, 1}});
  constexpr Mem kCapacity = 6.0;

  std::printf("Fig. 4 — static orders on Table 3 (capacity 6):\n\n");
  std::printf("OMIM (infinite memory), makespan %.0f:\n%s\n",
              omim(inst), render_gantt(inst, johnson_schedule(inst),
                                       {.width = 60, .show_legend = false})
                              .c_str());

  TextTable table({"heuristic", "order", "makespan", "paper"});
  const struct {
    StaticOrderPolicy policy;
    const char* expected;
  } rows[] = {
      {StaticOrderPolicy::kJohnson, "15"},
      {StaticOrderPolicy::kIncreasingComm, "16"},
      {StaticOrderPolicy::kDecreasingComp, "14"},
      {StaticOrderPolicy::kIncreasingCommPlusComp, "16"},
      {StaticOrderPolicy::kDecreasingCommPlusComp, "17"},
  };
  for (const auto& row : rows) {
    const std::vector<TaskId> order = static_order(inst, row.policy);
    std::string order_str;
    for (TaskId id : order) order_str += static_cast<char>('A' + id);
    const Schedule s = simulate_order(inst, order, kCapacity);
    table.add_row({std::string(to_acronym(row.policy)), order_str,
                   format_fixed(s.makespan(inst), 0), row.expected});
    std::printf("%s (order %s), makespan %.0f:\n%s\n",
                std::string(to_acronym(row.policy)).c_str(), order_str.c_str(),
                s.makespan(inst),
                render_gantt(inst, s, {.width = 60, .show_legend = false})
                    .c_str());
  }
  std::printf("%s", table.to_ascii().c_str());
  bench::write_table_csv(options, "fig04_static_orders", table);
  return 0;
}
