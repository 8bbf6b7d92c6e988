#include "heuristics/bin_packing.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "core/registry.hpp"
#include "test_util.hpp"
#include "trace/generators.hpp"

namespace dts {
namespace {

TEST(FirstFit, PacksGreedily) {
  // Memories 5, 4, 3, 2, 1 with capacity 6: First-Fit in submission order
  // -> bins {5,1}, {4,2}, {3}.
  const Instance inst = Instance::from_comm_comp(
      {{5, 1}, {4, 1}, {3, 1}, {2, 1}, {1, 1}});
  const auto bins = first_fit_bins(inst, 6.0);
  ASSERT_EQ(bins.size(), 3u);
  EXPECT_EQ(bins[0], (std::vector<TaskId>{0, 4}));
  EXPECT_EQ(bins[1], (std::vector<TaskId>{1, 3}));
  EXPECT_EQ(bins[2], (std::vector<TaskId>{2}));
}

TEST(FirstFit, RespectsCapacityInEveryBin) {
  Rng rng(44);
  for (int iter = 0; iter < 100; ++iter) {
    const Instance inst = testing::random_instance_free_mem(rng, 20);
    const Mem capacity = testing::random_capacity(rng, inst);
    for (const auto& bin : first_fit_bins(inst, capacity)) {
      Mem load = 0.0;
      for (TaskId id : bin) load += inst[id].mem;
      EXPECT_LE(load, capacity + 1e-9);
    }
  }
}

TEST(FirstFit, EveryTaskPlacedExactlyOnce) {
  Rng rng(45);
  const Instance inst = testing::random_instance_free_mem(rng, 30);
  const Mem capacity = testing::random_capacity(rng, inst);
  std::vector<int> seen(inst.size(), 0);
  for (const auto& bin : first_fit_bins(inst, capacity)) {
    for (TaskId id : bin) ++seen[id];
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                          [](int c) { return c == 1; }));
}

TEST(FirstFit, OversizedTaskThrows) {
  const Instance inst = Instance::from_comm_comp({{7, 1}});
  EXPECT_THROW((void)first_fit_bins(inst, 6.0), std::invalid_argument);
}

TEST(FirstFit, ExactFitAllowed) {
  const Instance inst = Instance::from_comm_comp({{6, 1}, {6, 1}});
  const auto bins = first_fit_bins(inst, 6.0);
  EXPECT_EQ(bins.size(), 2u);
}

/// The linear First-Fit the segment-tree version replaced: scan the bins
/// in opening order, place in the first whose residual holds the task.
std::vector<std::vector<TaskId>> linear_first_fit(const Instance& inst,
                                                  Mem capacity) {
  std::vector<std::vector<TaskId>> bins;
  std::vector<Mem> residual;
  for (const Task& t : inst) {
    std::size_t b = 0;
    while (b < bins.size() && !approx_leq(t.mem, residual[b])) ++b;
    if (b == bins.size()) {
      bins.emplace_back();
      residual.push_back(capacity);
    }
    bins[b].push_back(t.id);
    residual[b] -= t.mem;
  }
  return bins;
}

TEST(FirstFit, MatchesTheLinearScan) {
  // Random footprints, integer footprints that fill bins exactly (the
  // approx_leq tie band), the same with ~1e-12 jitter, and chemistry
  // traces across the capacity sweep.
  Rng rng(47);
  for (int iter = 0; iter < 200; ++iter) {
    std::vector<Task> tasks(1 + rng.index(120));
    for (Task& t : tasks) {
      t.comm = 1.0;
      t.comp = 1.0;
      t.mem = iter % 3 == 0 ? rng.uniform(0.1, 10.0)
                            : static_cast<Mem>(1 + rng.index(10));
      if (iter % 3 == 2 && rng.chance(0.5)) {
        t.mem *= 1.0 + 1e-12 * rng.uniform(-5.0, 5.0);
      }
    }
    const Instance inst(std::move(tasks));
    const Mem capacity = iter % 3 == 0 ? testing::random_capacity(rng, inst)
                                       : static_cast<Mem>(10 + rng.index(10));
    EXPECT_EQ(first_fit_bins(inst, capacity), linear_first_fit(inst, capacity))
        << "iteration " << iter;
  }
  for (const std::uint64_t seed : {1, 2}) {
    const TraceConfig config{.seed = seed, .min_tasks = 300, .max_tasks = 600};
    for (const Instance& inst :
         {generate_hf_trace(config), generate_ccsd_trace(config)}) {
      for (const double f : {1.0, 1.125, 1.25, 1.5, 2.0, 3.0}) {
        const Mem capacity = f * inst.min_capacity();
        EXPECT_EQ(first_fit_bins(inst, capacity),
                  linear_first_fit(inst, capacity))
            << "seed " << seed << " x" << f << " mc";
      }
    }
  }
}

TEST(BinPackingOrder, ConcatenatesBins) {
  const Instance inst = Instance::from_comm_comp(
      {{5, 1}, {4, 1}, {3, 1}, {2, 1}, {1, 1}});
  EXPECT_EQ(bin_packing_order(inst, 6.0),
            (std::vector<TaskId>{0, 4, 1, 3, 2}));
}

TEST(BinPackingSchedule, FeasibleUnderCapacity) {
  Rng rng(46);
  for (int iter = 0; iter < 100; ++iter) {
    const Instance inst = testing::random_instance(rng, 15);
    const Mem capacity = testing::random_capacity(rng, inst);
    const Schedule s = run_heuristic(HeuristicId::kBP, inst, capacity);
    EXPECT_TRUE(testing::feasible(inst, s, capacity));
  }
}

TEST(BinPackingSchedule, EmptyInstance) {
  const Instance inst;
  const Schedule s = run_heuristic(HeuristicId::kBP, inst, 5.0);
  EXPECT_EQ(s.size(), 0u);
}

}  // namespace
}  // namespace dts
