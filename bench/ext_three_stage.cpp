/// Extension bench: the full 3-stage model (input link, processor, output
/// link — the paper's §3 general formulation and its conclusion's duplex
/// CPU<->GPU scenario). Compares submission order, the paper-style
/// 2-stage Johnson order (ignoring outputs, as the paper's model does),
/// and the 3-machine Johnson surrogate, under device-memory budgets from
/// mc to 4 mc. Question answered: when do output transfers invalidate the
/// paper's "outputs are negligible" simplification?

#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"
#include "support/rng.hpp"
#include "threestage/three_stage.hpp"
#include "model/machine.hpp"

namespace {

using namespace dts;

/// GPU kernel queue with non-trivial result downloads (out ~ 30% of in).
ThreeStageInstance gpu_queue(Rng& rng, std::size_t n) {
  const Machine gpu = machine_from_name("pcie-gpu");
  std::vector<StagedTask> tasks;
  for (std::size_t i = 0; i < n; ++i) {
    const double in_bytes = rng.uniform(64e6, 768e6);
    const double out_bytes = in_bytes * rng.uniform(0.1, 0.5);
    const double flops = rng.uniform(0.5e12, 6e12);
    tasks.push_back(
        StagedTask{.id = 0,
                   .in_comm = gpu.transfer_time(kChannelH2D, in_bytes),
                   .comp = gpu.compute_time(flops),
                   .out_comm = gpu.transfer_time(kChannelH2D, out_bytes),
                   .in_mem = in_bytes,
                   .out_mem = out_bytes,
                   .name = "k" + std::to_string(i)});
  }
  return ThreeStageInstance(std::move(tasks));
}

/// The paper's 2-stage Johnson order applied to (in_comm, comp) only.
std::vector<TaskId> two_stage_johnson(const ThreeStageInstance& inst) {
  std::vector<TaskId> s1;
  std::vector<TaskId> s2;
  for (const StagedTask& t : inst) {
    (t.comp >= t.in_comm ? s1 : s2).push_back(t.id);
  }
  std::stable_sort(s1.begin(), s1.end(), [&](TaskId a, TaskId b) {
    return inst[a].in_comm < inst[b].in_comm;
  });
  std::stable_sort(s2.begin(), s2.end(), [&](TaskId a, TaskId b) {
    return inst[a].comp > inst[b].comp;
  });
  s1.insert(s1.end(), s2.begin(), s2.end());
  return s1;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Options options = bench::Options::parse(argc, argv);
  const std::size_t runs = std::max<std::size_t>(options.traces / 5, 10);

  TextTable table({"device mem", "OS", "Johnson (2-stage, paper)",
                   "Johnson-3 surrogate"});
  for (double factor : {1.0, 1.5, 2.0, 4.0}) {
    double os_sum = 0.0, j2_sum = 0.0, j3_sum = 0.0;
    Rng rng(options.seed * 31 + 7);
    for (std::size_t r = 0; r < runs; ++r) {
      const ThreeStageInstance inst = gpu_queue(rng, 48);
      const Mem capacity = inst.min_capacity() * factor;
      const ThreeStageBounds lb = three_stage_bounds(inst);
      const Time os_ms =
          three_stage_makespan(inst, inst.submission_order(), capacity);
      const Time j2 =
          three_stage_makespan(inst, two_stage_johnson(inst), capacity);
      const Time j3 = three_stage_makespan(inst, johnson3_order(inst), capacity);
      os_sum += os_ms / lb.combined;
      j2_sum += j2 / lb.combined;
      j3_sum += j3 / lb.combined;
    }
    const auto avg = [&](double s) {
      return format_fixed(s / static_cast<double>(runs), 4);
    };
    table.add_row({format_fixed(factor, 2) + " mc", avg(os_sum), avg(j2_sum),
                   avg(j3_sum)});
  }
  std::printf("Extension — 3-stage (duplex CPU<->GPU) scheduling, mean ratio "
              "to the 3-stage lower bound over %zu queues of 48 kernels:\n%s",
              runs, table.to_ascii().c_str());
  bench::write_table_csv(options, "ext_three_stage", table);
  return 0;
}
