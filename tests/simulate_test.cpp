#include "core/simulate.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "core/compiled.hpp"
#include "core/johnson.hpp"
#include "heuristics/dynamic.hpp"
#include "test_util.hpp"

namespace dts {
namespace {

Task make_task(Time comm, Time comp, Mem mem) {
  return Task{.id = 0, .comm = comm, .comp = comp, .mem = mem, .name = {}};
}

/// Compiled instance of the given tasks (ids follow the list), for
/// driving the engine's step API by task id.
CompiledInstance compile(std::vector<Task> tasks) {
  return CompiledInstance(Instance(std::move(tasks)));
}

TEST(ExecutionState, FreshStateIsEmpty) {
  const CompiledInstance ci = compile({make_task(3, 4, 5)});
  const Engine s(ci, 10.0);
  EXPECT_DOUBLE_EQ(s.now(), 0.0);
  EXPECT_DOUBLE_EQ(s.used_memory(), 0.0);
  EXPECT_EQ(s.active_tasks(), 0u);
}

TEST(ExecutionState, RejectsNegativeCapacity) {
  const CompiledInstance ci = compile({make_task(3, 4, 5)});
  EXPECT_THROW(Engine(ci, -1.0), std::invalid_argument);
}

TEST(ExecutionState, StartAdvancesLinkAndQueuesComp) {
  const CompiledInstance ci = compile({make_task(3, 4, 5)});
  Engine s(ci, 10.0);
  const TaskTimes tt = s.start(0);
  EXPECT_DOUBLE_EQ(tt.comm_start, 0.0);
  EXPECT_DOUBLE_EQ(tt.comp_start, 3.0);
  EXPECT_DOUBLE_EQ(s.now(), 3.0);
  EXPECT_DOUBLE_EQ(s.comp_available(), 7.0);
  EXPECT_DOUBLE_EQ(s.used_memory(), 5.0);
}

TEST(ExecutionState, MemoryReleasedAtComputeEnd) {
  const CompiledInstance ci = compile({make_task(3, 4, 5)});
  Engine s(ci, 10.0);
  s.start(0);
  EXPECT_TRUE(s.advance_to_next_release());
  EXPECT_DOUBLE_EQ(s.now(), 7.0);
  EXPECT_DOUBLE_EQ(s.used_memory(), 0.0);
  EXPECT_FALSE(s.advance_to_next_release());
}

TEST(ExecutionState, FitsRespectsCapacity) {
  const CompiledInstance ci = compile({make_task(2, 10, 6)});
  Engine s(ci, 10.0);
  s.start(0);
  EXPECT_TRUE(s.fits(4));
  EXPECT_FALSE(s.fits(4.5));
}

TEST(ExecutionState, StartThrowsWhenNotFitting) {
  const CompiledInstance ci =
      compile({make_task(2, 10, 6), make_task(1, 1, 5)});
  Engine s(ci, 10.0);
  s.start(0);
  EXPECT_THROW((void)s.start(1), std::logic_error);
}

TEST(ExecutionState, ZeroComputationReleasesImmediately) {
  const CompiledInstance ci = compile({make_task(4, 0, 9)});
  Engine s(ci, 10.0);
  s.start(0);
  // comp runs [4,4): by the time the link is free again the memory is gone.
  EXPECT_DOUBLE_EQ(s.used_memory(), 0.0);
  EXPECT_EQ(s.active_tasks(), 0u);
}

TEST(ExecutionState, InducedIdleComputation) {
  const CompiledInstance ci = compile({make_task(2, 10, 1)});
  Engine s(ci, 20.0);
  s.start(0);  // processor busy until 12, link free at 2
  const Time start = std::max(s.now(), s.comm_available(0));
  // A task with comm 4 would arrive at 6 < 12: no induced idle.
  EXPECT_DOUBLE_EQ(induced_idle(start, 4, s.comp_available()), 0.0);
  // A task with comm 15 would arrive at 17: 5 units of idle.
  EXPECT_DOUBLE_EQ(induced_idle(start, 15, s.comp_available()), 5.0);
}

TEST(ExecutionState, SnapshotRoundTrip) {
  const CompiledInstance ci =
      compile({make_task(2, 8, 4), make_task(3, 1, 3)});
  Engine s(ci, 10.0);
  s.start(0);  // active until 10
  s.start(1);  // comp [10,11): active until 11
  const Engine::Snapshot snap = s.snapshot();
  const Engine r(ci, 10.0, &snap);
  EXPECT_DOUBLE_EQ(r.comm_available(), s.comm_available());
  EXPECT_DOUBLE_EQ(r.comp_available(), s.comp_available());
  EXPECT_DOUBLE_EQ(r.used_memory(), s.used_memory());
  EXPECT_EQ(r.active_tasks(), s.active_tasks());
}

TEST(ExecutionState, SnapshotDropsFinishedEntries) {
  const CompiledInstance ci = compile({make_task(1, 1, 1)});
  Engine::Snapshot snap;
  snap.comm_available = {10.0};
  snap.comp_available = 12.0;
  snap.active = {{5.0, 100.0}, {15.0, 7.0}};  // first already finished
  const Engine s(ci, 20.0, &snap);
  EXPECT_DOUBLE_EQ(s.used_memory(), 7.0);
  EXPECT_EQ(s.active_tasks(), 1u);
}

TEST(SimulateOrder, InfiniteMemoryMatchesFlowshopRecurrence) {
  const Instance inst = testing::table3_instance();
  const std::vector<TaskId> order{1, 2, 0, 3};  // Johnson order B C A D
  const Schedule s = simulate_order(inst, order, kInfiniteMem);
  EXPECT_DOUBLE_EQ(s.makespan(inst), 12.0);
}

TEST(SimulateOrder, RequiresFullOrder) {
  const Instance inst = testing::table3_instance();
  const std::vector<TaskId> partial{0, 1};
  EXPECT_THROW((void)simulate_order(inst, partial, kInfiniteMem),
               std::invalid_argument);
}

TEST(SimulateOrder, ThrowsWhenTaskCannotEverFit) {
  const Instance inst = Instance::from_comm_comp({{5, 1}, {2, 1}});
  const auto order = inst.submission_order();
  EXPECT_THROW((void)simulate_order(inst, order, 4.0), std::invalid_argument);
}

TEST(SimulateOrder, SequentialUnderMinimumCapacity) {
  // With capacity = max task memory, transfers serialize behind the
  // previous computation whenever both tasks' footprints exceed C.
  const Instance inst = Instance::from_comm_comp({{4, 3}, {4, 3}});
  const auto order = inst.submission_order();
  const Schedule s = simulate_order(inst, order, 4.0);
  EXPECT_TRUE(testing::feasible(inst, s, 4.0));
  EXPECT_DOUBLE_EQ(s.makespan(inst), 14.0);  // 4+3 then 4+3, zero overlap
}

TEST(SimulateOrder, HalfOpenMemoryIntervalAdmitsBackToBack) {
  // Task 1's transfer may start exactly when task 0's computation ends.
  const Instance inst = Instance::from_comm_comp({{4, 3}, {4, 3}});
  const auto order = inst.submission_order();
  const Schedule s = simulate_order(inst, order, 4.0);
  EXPECT_DOUBLE_EQ(s[1].comm_start, 7.0);
}

TEST(SimulateOrder, RandomOrdersAlwaysFeasible) {
  Rng rng(2024);
  for (int iter = 0; iter < 200; ++iter) {
    const Instance inst = testing::random_instance(rng, 12);
    const Mem capacity = testing::random_capacity(rng, inst);
    std::vector<TaskId> order = inst.submission_order();
    // Shuffle via random keys.
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.index(i)]);
    }
    const Schedule s = simulate_order(inst, order, capacity);
    EXPECT_TRUE(testing::feasible(inst, s, capacity));
  }
}

TEST(ExecuteOrder, CarriesStateAcrossCalls) {
  const Instance inst = testing::table3_instance();
  const CompiledInstance ci(inst);
  Engine engine;
  Schedule sched(inst.size());
  const std::vector<TaskId> first{1, 2};
  const std::vector<TaskId> second{0, 3};
  (void)evaluate_order(ci, first, kInfiniteMem, engine, sched);
  const Engine::Snapshot carried = engine.snapshot();
  (void)evaluate_order(ci, second, kInfiniteMem, engine, sched, &carried);
  // Identical to executing the concatenated order in one go.
  const std::vector<TaskId> full{1, 2, 0, 3};
  const Schedule reference = simulate_order(inst, full, kInfiniteMem);
  for (TaskId i = 0; i < inst.size(); ++i) {
    EXPECT_DOUBLE_EQ(sched[i].comm_start, reference[i].comm_start);
    EXPECT_DOUBLE_EQ(sched[i].comp_start, reference[i].comp_start);
  }
}

}  // namespace
}  // namespace dts
