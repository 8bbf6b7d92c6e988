/// \file fast_path_parity_test.cpp
/// Bit-for-bit checks of the timing engine (core/compiled.hpp). Every
/// comparison here is EXACT double equality, not epsilon-based.
///
/// Two kinds of check:
///  * against testing::reference_run (tests/test_util.hpp), a plain
///    per-task loop written from the engine's documented rules — never
///    against simulate_order / makespan_of_order, which are built on the
///    engine and would make the comparison circular;
///  * self-consistency: snapshot -> restore -> continue, and prefix
///    resume, must reproduce a straight run exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/compiled.hpp"
#include "core/instance.hpp"
#include "core/schedule.hpp"
#include "core/simulate.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

namespace dts {
namespace {

/// Random instance across `channels` engines, memory decoupled from the
/// communication time, with the same tie/zero edge cases the differential
/// suite uses.
Instance random_channel_instance(Rng& rng, std::size_t n,
                                 std::size_t channels) {
  std::vector<Task> tasks;
  tasks.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Task t;
    t.comm = rng.uniform(0.0, 10.0);
    t.comp = rng.uniform(0.0, 10.0);
    if (rng.chance(0.1)) t.comm = 0.0;
    if (rng.chance(0.1)) t.comp = 0.0;
    if (rng.chance(0.25)) t.comm = std::floor(t.comm);
    if (rng.chance(0.25)) t.comp = std::floor(t.comp);
    t.mem = rng.uniform(0.1, 10.0);
    t.channel = static_cast<ChannelId>(rng.index(channels));
    tasks.push_back(std::move(t));
  }
  return Instance(std::move(tasks));
}

std::vector<TaskId> shuffled_order(Rng& rng, const Instance& inst) {
  std::vector<TaskId> order = inst.submission_order();
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.index(i)]);
  }
  return order;
}

/// Capacity regimes the corpus sweeps: the tightest feasible, a mildly
/// constrained one, and effectively unconstrained.
Mem capacity_for(const Instance& inst, int regime) {
  const Mem mc = std::max(inst.min_capacity(), 0.1);
  switch (regime) {
    case 0: return mc;              // tightest: admission waits dominate
    case 1: return 1.5 * mc;        // constrained
    default: return 1e9;            // effectively infinite
  }
}

/// Random DAG over `channels` engines: each task depends on up to two
/// earlier tasks, so submission order is topological.
Instance random_dag_instance(Rng& rng, std::size_t n, std::size_t channels) {
  Instance base = random_channel_instance(rng, n, channels);
  std::vector<Task> tasks = base.tasks();
  for (std::size_t i = 1; i < n; ++i) {
    for (int e = 0; e < 2; ++e) {
      if (!rng.chance(0.4)) continue;
      const auto dep = static_cast<TaskId>(rng.index(i));
      if (std::find(tasks[i].deps.begin(), tasks[i].deps.end(), dep) ==
          tasks[i].deps.end()) {
        tasks[i].deps.push_back(dep);
      }
    }
  }
  return Instance(std::move(tasks));
}

/// The step API as a list scheduler drives it: wait for memory, then
/// start each task no earlier than its predecessors' computation ends,
/// read from `out`.
void step_run(const CompiledInstance& ci, std::span<const TaskId> order,
              Engine& engine, Schedule& out) {
  for (const TaskId id : order) {
    Time ready = 0.0;
    for (const TaskId dep : ci.deps(id)) {
      ASSERT_TRUE(out[dep].scheduled());
      ready = std::max(ready, out[dep].comp_start + ci.comp(dep));
    }
    while (!engine.fits(ci.mem(id))) {
      ASSERT_TRUE(engine.advance_to_next_release());
    }
    const TaskTimes tt = engine.start(id, ready);
    out.set(id, tt.comm_start, tt.comp_start);
  }
}

/// Clocks and the in-flight count must agree exactly. A restored engine
/// re-sums its footprint from the snapshot, so after a restore the
/// footprint only agrees up to rounding (`exact_memory` false).
::testing::AssertionResult same_state(const Engine& a, const Engine& b,
                                      bool exact_memory = true) {
  const bool memory = exact_memory
                          ? a.used_memory() == b.used_memory()
                          : approx_equal(a.used_memory(), b.used_memory());
  if (a.now() == b.now() && a.comp_available() == b.comp_available() &&
      a.comm_available() == b.comm_available() && memory &&
      a.active_tasks() == b.active_tasks()) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "engine states differ: now " << a.now() << " vs " << b.now()
         << ", used " << a.used_memory() << " vs " << b.used_memory();
}

TEST(FastPathParity, EvaluateOrderMatchesReferenceEngineBitForBit) {
  Rng rng(2026);
  Engine engine;
  for (int iter = 0; iter < 400; ++iter) {
    const std::size_t channels = 1 + rng.index(3);
    const std::size_t n = 1 + rng.index(14);
    const Instance inst = rng.chance(0.25)
                              ? random_dag_instance(rng, n, channels)
                              : random_channel_instance(rng, n, channels);
    const Mem capacity = capacity_for(inst, static_cast<int>(rng.index(3)));
    const std::vector<TaskId> order =
        inst.has_dependencies() ? inst.submission_order()
                                : shuffled_order(rng, inst);

    const testing::ReferenceRun want =
        testing::reference_run(inst, order, capacity);
    const CompiledInstance ci(inst);
    const Time got = evaluate_order(ci, order, capacity, engine);
    ASSERT_EQ(want.schedule.makespan(inst), got) << "iter " << iter;

    // The full engine state must match, not just the makespan: batch and
    // exact callers read these for carried state and tie-breaks.
    ASSERT_EQ(want.comp_available, engine.comp_available()) << iter;
    ASSERT_EQ(*std::max_element(want.comm_available.begin(),
                                want.comm_available.end()),
              engine.comm_available())
        << iter;
    for (ChannelId ch = 0; ch < want.comm_available.size(); ++ch) {
      ASSERT_EQ(want.comm_available[ch], engine.comm_available(ch)) << iter;
    }
    ASSERT_EQ(want.now, engine.now()) << iter;
    ASSERT_EQ(want.used, engine.used_memory()) << iter;
    ASSERT_EQ(want.active, engine.active_tasks()) << iter;
  }
}

TEST(FastPathParity, RecordingOverloadMatchesExecuteOrderSchedules) {
  Rng rng(777);
  Engine engine;
  for (int iter = 0; iter < 200; ++iter) {
    const std::size_t channels = 1 + rng.index(3);
    const Instance inst = random_channel_instance(rng, 2 + rng.index(12),
                                                  channels);
    const Mem capacity = capacity_for(inst, static_cast<int>(rng.index(3)));
    const std::vector<TaskId> order = shuffled_order(rng, inst);

    const Schedule want =
        testing::reference_run(inst, order, capacity).schedule;

    const CompiledInstance ci(inst);
    Schedule got(inst.size());
    const Time ms = evaluate_order(ci, order, capacity, engine, got);
    ASSERT_EQ(want.makespan(inst), ms) << iter;
    for (TaskId id = 0; id < inst.size(); ++id) {
      ASSERT_EQ(want[id].comm_start, got[id].comm_start) << iter << " " << id;
      ASSERT_EQ(want[id].comp_start, got[id].comp_start) << iter << " " << id;
    }
    // Stepping the engine by hand takes the same operation sequence.
    Engine stepped(ci, capacity);
    Schedule by_step(inst.size());
    step_run(ci, order, stepped, by_step);
    for (TaskId id = 0; id < inst.size(); ++id) {
      ASSERT_EQ(want[id].comm_start, by_step[id].comm_start) << iter;
      ASSERT_EQ(want[id].comp_start, by_step[id].comp_start) << iter;
    }
    ASSERT_TRUE(same_state(engine, stepped)) << iter;
  }
}

TEST(FastPathParity, CarriedSnapshotsMatchMidStream) {
  // Self-consistency: run a prefix of an order, snapshot, restore into a
  // fresh engine and continue — the continuation must reproduce the
  // straight run exactly, on one to three channels and on DAGs.
  Rng rng(31337);
  Engine engine;
  for (int iter = 0; iter < 300; ++iter) {
    const std::size_t channels = 1 + rng.index(3);
    const std::size_t n = 4 + rng.index(10);
    const bool dag = iter % 3 == 0;
    const Instance inst = dag ? random_dag_instance(rng, n, channels)
                              : random_channel_instance(rng, n, channels);
    const Mem capacity = capacity_for(inst, static_cast<int>(rng.index(3)));
    const std::vector<TaskId> order =
        dag ? inst.submission_order() : shuffled_order(rng, inst);
    const std::size_t cut = 1 + rng.index(order.size() - 1);
    const std::span<const TaskId> head(order.data(), cut);
    const std::span<const TaskId> tail(order.data() + cut,
                                       order.size() - cut);
    const CompiledInstance ci(inst);

    Engine straight(ci, capacity);
    Schedule want(inst.size());
    step_run(ci, order, straight, want);

    Engine warmup(ci, capacity);
    Schedule got(inst.size());
    step_run(ci, head, warmup, got);
    const Engine::Snapshot snap = warmup.snapshot();
    Engine resumed(ci, capacity, &snap);
    step_run(ci, tail, resumed, got);
    for (const TaskId id : tail) {
      ASSERT_EQ(want[id].comm_start, got[id].comm_start) << iter << " " << id;
      ASSERT_EQ(want[id].comp_start, got[id].comp_start) << iter << " " << id;
    }
    ASSERT_TRUE(same_state(straight, resumed, false)) << iter;

    if (!dag) {
      // evaluate_order resumes from the same snapshot identically.
      Schedule scored(inst.size());
      (void)evaluate_order(ci, tail, capacity, engine, scored, &snap);
      for (const TaskId id : tail) {
        ASSERT_EQ(want[id].comm_start, scored[id].comm_start) << iter;
        ASSERT_EQ(want[id].comp_start, scored[id].comp_start) << iter;
      }
      ASSERT_TRUE(same_state(straight, engine, false)) << iter;
    }
  }
}

TEST(FastPathParity, PrefixResumeMatchesFromScratchOnSwapNeighborhoods) {
  Rng rng(90210);
  Engine engine;
  for (int rep = 0; rep < 40; ++rep) {
    const std::size_t channels = 1 + rng.index(3);
    const Instance inst = random_channel_instance(rng, 6 + rng.index(10),
                                                  channels);
    const Mem capacity = capacity_for(inst, static_cast<int>(rng.index(3)));
    const CompiledInstance ci(inst);
    PrefixResumeEvaluator evaluator(ci, capacity);

    std::vector<TaskId> reference = shuffled_order(rng, inst);
    ASSERT_EQ(evaluate_order(ci, reference, capacity, engine),
              evaluator.set_reference(reference))
        << rep;

    std::vector<TaskId> candidate;
    for (int move = 0; move < 50; ++move) {
      candidate = reference;
      const std::size_t n = candidate.size();
      if (rng.chance(0.5)) {  // adjacent swap — the local-search hot case
        const std::size_t i = rng.index(n - 1);
        std::swap(candidate[i], candidate[i + 1]);
      } else {  // arbitrary pair swap
        std::swap(candidate[rng.index(n)], candidate[rng.index(n)]);
      }
      const Time from_scratch = evaluate_order(ci, candidate, capacity,
                                               engine);
      ASSERT_EQ(from_scratch, evaluator.evaluate(candidate))
          << rep << " move " << move;
      // Occasionally move the reference — exercises the incremental
      // re-checkpointing path local search takes on every improvement.
      if (rng.chance(0.2)) {
        ASSERT_EQ(from_scratch, evaluator.set_reference(candidate))
            << rep << " move " << move;
        reference = candidate;
      }
    }
    // The whole point: checkpoints must actually be resumed from.
    EXPECT_GT(evaluator.tasks_resumed(), 0u) << rep;
  }
}

TEST(FastPathParity, PrefixResumeMatchesWithCarriedSnapshot) {
  Rng rng(4242);
  Engine engine;
  for (int rep = 0; rep < 40; ++rep) {
    const std::size_t channels = 1 + rng.index(3);
    const Instance inst = random_channel_instance(rng, 6 + rng.index(8),
                                                  channels);
    const Mem capacity = capacity_for(inst, static_cast<int>(rng.index(3)));

    // Any engine state reached by real execution is a valid carried state.
    const CompiledInstance ci(inst);
    const std::vector<TaskId> all = shuffled_order(rng, inst);
    const std::size_t cut = 1 + rng.index(all.size() - 2);
    (void)evaluate_order(ci, std::span<const TaskId>(all.data(), cut),
                         capacity, engine);
    const Engine::Snapshot snap = engine.snapshot();
    const std::vector<TaskId> rest(all.begin() +
                                       static_cast<std::ptrdiff_t>(cut),
                                   all.end());

    // Resuming from checkpoints must equal restoring and running afresh.
    PrefixResumeEvaluator evaluator(ci, capacity, snap);
    ASSERT_EQ(evaluate_order(ci, rest, capacity, engine, &snap),
              evaluator.set_reference(rest))
        << rep;
    std::vector<TaskId> candidate = rest;
    for (int move = 0; move < 20 && candidate.size() > 1; ++move) {
      const std::size_t i = rng.index(candidate.size() - 1);
      std::swap(candidate[i], candidate[i + 1]);
      ASSERT_EQ(evaluate_order(ci, candidate, capacity, engine, &snap),
                evaluator.evaluate(candidate))
          << rep << " move " << move;
    }
  }
}

TEST(FastPathParity, NextPermutationScanMatchesFromScratch) {
  // The exhaustive solver moves the reference once per permutation; the
  // resumed stream must track a from-scratch evaluation bit for bit.
  Rng rng(555);
  Engine engine;
  for (std::size_t channels = 1; channels <= 3; ++channels) {
    const Instance inst = random_channel_instance(rng, 5, channels);
    const Mem capacity = capacity_for(inst, 1);
    const CompiledInstance ci(inst);
    PrefixResumeEvaluator evaluator(ci, capacity);
    std::vector<TaskId> order = inst.submission_order();
    do {
      ASSERT_EQ(evaluate_order(ci, order, capacity, engine),
                evaluator.set_reference(order));
    } while (std::next_permutation(order.begin(), order.end()));
    EXPECT_GT(evaluator.tasks_resumed(), 0u);
  }
}

TEST(FastPathParity, ErrorPathsMatchTheReferenceEngine) {
  const Instance inst = Instance::from_comm_comp({{2, 3}, {4, 1}});
  const CompiledInstance ci(inst);
  const std::vector<TaskId> order = inst.submission_order();
  Engine engine;

  // Negative capacity.
  EXPECT_THROW((void)evaluate_order(ci, order, -1.0, engine),
               std::invalid_argument);

  // A task that can never fit: the same exception type as the oracle, and
  // a message naming the task and the capacity (callers print these).
  const Mem tiny = 3.0;  // task 1 needs mem 4 (mem == comm here)
  EXPECT_THROW((void)testing::reference_run(inst, order, tiny),
               std::invalid_argument);
  try {
    (void)evaluate_order(ci, order, tiny, engine);
    FAIL() << "engine accepted an infeasible task";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("task 1 requires"), std::string::npos) << what;
    EXPECT_NE(what.find("capacity is 3"), std::string::npos) << what;
  }

  // Unknown task id: out_of_range.
  const std::vector<TaskId> bogus = {0, 7};
  EXPECT_THROW((void)evaluate_order(ci, bogus, 100.0, engine),
               std::out_of_range);

  // Stepping past the admission check is a caller bug: logic_error.
  Engine stepped(ci, 4.0);
  (void)stepped.start(0);
  EXPECT_THROW((void)stepped.start(1), std::logic_error);

  // A failed set_reference invalidates the reference instead of leaving
  // half-recorded checkpoints behind.
  PrefixResumeEvaluator evaluator(ci, tiny);
  EXPECT_THROW((void)evaluator.set_reference(order), std::invalid_argument);
  EXPECT_TRUE(evaluator.reference().empty());
}

TEST(FastPathParity, ReexpressedEntryPointsStillAgreeWithTheOracle) {
  // simulate_order/makespan_of_order wrap the engine; pin them against
  // the oracle too so a regression cannot hide behind the wrappers.
  Rng rng(8);
  for (int iter = 0; iter < 50; ++iter) {
    const Instance inst = random_channel_instance(rng, 2 + rng.index(10),
                                                  1 + rng.index(3));
    const Mem capacity = capacity_for(inst, static_cast<int>(rng.index(3)));
    const std::vector<TaskId> order = shuffled_order(rng, inst);

    const Schedule want =
        testing::reference_run(inst, order, capacity).schedule;
    const Time oracle = want.makespan(inst);

    ASSERT_EQ(oracle, makespan_of_order(inst, order, capacity)) << iter;
    const Schedule got = simulate_order(inst, order, capacity);
    for (TaskId id = 0; id < inst.size(); ++id) {
      ASSERT_EQ(want[id].comm_start, got[id].comm_start) << iter << " " << id;
      ASSERT_EQ(want[id].comp_start, got[id].comp_start) << iter << " " << id;
    }
  }
}

}  // namespace
}  // namespace dts
