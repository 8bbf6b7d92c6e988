#include "report/schedule_stats.hpp"

#include <gtest/gtest.h>

#include "core/simulate.hpp"
#include "core/solver.hpp"
#include "model/machine.hpp"
#include "test_util.hpp"
#include "trace/generators.hpp"

namespace dts {
namespace {

TEST(ScheduleStats, EmptySchedule) {
  const ScheduleBreakdown b = analyze_schedule(Instance{}, Schedule(0));
  EXPECT_DOUBLE_EQ(b.makespan, 0.0);
  EXPECT_DOUBLE_EQ(b.link_utilization(), 0.0);
}

TEST(ScheduleStats, SequentialScheduleHasZeroOverlap) {
  // One task: comm [0,3), comp [3,5): no overlap possible.
  const Instance inst = Instance::from_comm_comp({{3, 2}});
  const Schedule s = simulate_order(inst, inst.submission_order(), 3.0);
  const ScheduleBreakdown b = analyze_schedule(inst, s);
  EXPECT_DOUBLE_EQ(b.makespan, 5.0);
  EXPECT_DOUBLE_EQ(b.link_busy, 3.0);
  EXPECT_DOUBLE_EQ(b.proc_busy, 2.0);
  EXPECT_DOUBLE_EQ(b.link_idle, 2.0);
  EXPECT_DOUBLE_EQ(b.proc_idle, 3.0);
  EXPECT_DOUBLE_EQ(b.overlap, 0.0);
}

TEST(ScheduleStats, FullOverlapPattern) {
  // Johnson on Table 3 with infinite memory (Fig. 4a): comm busy [0,10),
  // comp busy [1,4) u [5,12); their intersection is [1,4) u [5,10) = 8 of
  // the 10 comm units.
  const Instance inst = testing::table3_instance();
  const std::vector<TaskId> order{1, 2, 0, 3};
  const Schedule s = simulate_order(inst, order, kInfiniteMem);
  const ScheduleBreakdown b = analyze_schedule(inst, s);
  EXPECT_DOUBLE_EQ(b.makespan, 12.0);
  EXPECT_DOUBLE_EQ(b.link_busy, 10.0);
  EXPECT_DOUBLE_EQ(b.proc_busy, 10.0);
  EXPECT_NEAR(b.overlap, 0.8, 1e-12);
}

TEST(ScheduleStats, UtilizationsSumWithIdle) {
  Rng rng(601);
  for (int iter = 0; iter < 50; ++iter) {
    const Instance inst = testing::random_instance(rng, 10);
    const Mem capacity = testing::random_capacity(rng, inst);
    const Schedule s = simulate_order(inst, inst.submission_order(), capacity);
    const ScheduleBreakdown b = analyze_schedule(inst, s);
    EXPECT_NEAR(b.link_busy + b.link_idle, b.makespan, 1e-9);
    EXPECT_NEAR(b.proc_busy + b.proc_idle, b.makespan, 1e-9);
    EXPECT_GE(b.overlap, -1e-12);
    EXPECT_LE(b.overlap, 1.0 + 1e-12);
    EXPECT_LE(b.proc_starved, b.proc_idle + 1e-9)
        << "starved time is a kind of idle time";
  }
}

TEST(ScheduleStats, StarvationDetectsDataWait) {
  // Processor waits 4 units for the only task's transfer: all idle before
  // its computation is starvation.
  const Instance inst = Instance::from_comm_comp({{4, 1}});
  const Schedule s = simulate_order(inst, inst.submission_order(), 4.0);
  const ScheduleBreakdown b = analyze_schedule(inst, s);
  EXPECT_DOUBLE_EQ(b.proc_starved, 4.0);
}

TEST(ScheduleStats, ConcurrentEnginesCountOnceOnTheLink) {
  // A fetch on H2D and a write-back on D2H both transfer during [0,4):
  // the link is busy 4 units, not 8, and the processor starves all 4.
  std::vector<Task> tasks(2);
  tasks[0].comm = 4.0;
  tasks[0].comp = 1.0;
  tasks[0].mem = 1.0;
  tasks[1].comm = 4.0;
  tasks[1].mem = 1.0;
  tasks[1].channel = kChannelD2H;
  const Instance inst(std::move(tasks));
  const Schedule s = simulate_order(inst, inst.submission_order(), 2.0);
  ASSERT_DOUBLE_EQ(s[1].comm_start, 0.0);
  const ScheduleBreakdown b = analyze_schedule(inst, s);
  EXPECT_DOUBLE_EQ(b.makespan, 5.0);
  EXPECT_DOUBLE_EQ(b.link_busy, 4.0);
  EXPECT_DOUBLE_EQ(b.link_idle, 1.0);
  EXPECT_DOUBLE_EQ(b.link_utilization(), 0.8);
  EXPECT_DOUBLE_EQ(b.overlap, 0.0);
  EXPECT_DOUBLE_EQ(b.proc_starved, 4.0);
}

TEST(ScheduleStats, DuplexWritebackScheduleStaysWithinBounds) {
  // Duplex HF with every fetched byte written back, scheduled by LCMR at
  // 1.5 mc: summing both engines once reported a link utilization of
  // 118%.
  TraceConfig config;
  config.machine = machine_from_name("duplex-pcie");
  config.writeback_fraction = 1.0;
  const Instance inst = generate_trace(ChemistryKernel::kHartreeFock, config);
  ASSERT_EQ(inst.num_channels(), 2u);
  const SolveRequest request{.instance = inst,
                             .capacity = 1.5 * inst.min_capacity()};
  const ScheduleBreakdown b =
      analyze_schedule(inst, solve(request, "LCMR").schedule);
  EXPECT_LE(b.link_utilization(), 1.0);
  EXPECT_NEAR(b.link_busy + b.link_idle, b.makespan, 1e-9 * b.makespan);
  EXPECT_GE(b.overlap, 0.0);
  EXPECT_LE(b.overlap, 1.0);
  EXPECT_GE(b.proc_starved, 0.0);
  EXPECT_LE(b.proc_starved, b.proc_idle + 1e-9 * b.makespan);
}

}  // namespace
}  // namespace dts
