/// Fig. 5 / Table 4 — the three dynamic heuristic schedules on the Table 4
/// instance with capacity 6.

#include <cstdio>

#include "bench_common.hpp"
#include "core/registry.hpp"
#include "report/gantt.hpp"

int main(int argc, char** argv) {
  using namespace dts;
  const bench::Options options = bench::Options::parse(argc, argv);

  const Instance inst =
      Instance::from_comm_comp({{3, 2}, {1, 6}, {4, 6}, {5, 1}});
  constexpr Mem kCapacity = 6.0;

  std::printf("Fig. 5 — dynamic heuristics on Table 4 (capacity 6):\n\n");
  TextTable table({"heuristic", "realized order", "makespan", "paper"});
  const struct {
    HeuristicId id;
    const char* expected;
  } rows[] = {
      {HeuristicId::kLCMR, "23"},
      {HeuristicId::kSCMR, "25"},
      {HeuristicId::kMAMR, "24"},
  };
  for (const auto& row : rows) {
    const Schedule s = run_heuristic(row.id, inst, kCapacity);
    std::string order_str;
    for (TaskId id : s.comm_order()) order_str += static_cast<char>('A' + id);
    table.add_row({std::string(name_of(row.id)), order_str,
                   format_fixed(s.makespan(inst), 0), row.expected});
    std::printf("%s (order %s), makespan %.0f:\n%s\n",
                std::string(name_of(row.id)).c_str(),
                order_str.c_str(), s.makespan(inst),
                render_gantt(inst, s, {.width = 60, .show_legend = false})
                    .c_str());
  }
  std::printf("%s", table.to_ascii().c_str());
  bench::write_table_csv(options, "fig05_dynamic", table);
  return 0;
}
