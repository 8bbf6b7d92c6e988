/// Cross-cutting invariants, swept over a parameter grid (TEST_P): every
/// heuristic x several instance shapes x capacity factors. These are the
/// library's safety net: feasibility, bound sandwiching, monotonicity
/// where theory guarantees it, and graceful handling of degenerate tasks.

#include <gtest/gtest.h>

#include <tuple>

#include "core/bounds.hpp"
#include "core/johnson.hpp"
#include "core/registry.hpp"
#include "core/validate.hpp"
#include "exact/exhaustive.hpp"
#include "test_util.hpp"

namespace dts {
namespace {

enum class Shape {
  kUniform,        ///< comm, comp ~ U(0,10), mem = comm
  kCommHeavy,      ///< comm dominates (HF-like)
  kCompHeavy,      ///< comp dominates
  kBimodal,        ///< mix of tiny and huge tasks (CCSD-like)
  kDegenerate,     ///< many zero comm/comp tasks
};

Instance make_shaped(Rng& rng, Shape shape, std::size_t n) {
  std::vector<Task> tasks;
  tasks.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Time comm = 0.0, comp = 0.0;
    switch (shape) {
      case Shape::kUniform:
        comm = rng.uniform(0.1, 10.0);
        comp = rng.uniform(0.1, 10.0);
        break;
      case Shape::kCommHeavy:
        comm = rng.uniform(4.0, 10.0);
        comp = rng.uniform(0.1, 2.0);
        break;
      case Shape::kCompHeavy:
        comm = rng.uniform(0.1, 2.0);
        comp = rng.uniform(4.0, 10.0);
        break;
      case Shape::kBimodal:
        if (rng.chance(0.5)) {
          comm = rng.uniform(0.05, 0.4);
          comp = rng.uniform(0.05, 0.4);
        } else {
          comm = rng.uniform(6.0, 12.0);
          comp = rng.uniform(6.0, 12.0);
        }
        break;
      case Shape::kDegenerate:
        comm = rng.chance(0.4) ? 0.0 : rng.uniform(0.0, 5.0);
        comp = rng.chance(0.4) ? 0.0 : rng.uniform(0.0, 5.0);
        break;
    }
    tasks.push_back(
        Task{.id = 0, .comm = comm, .comp = comp, .mem = comm, .name = {}});
  }
  return Instance(std::move(tasks));
}

const char* shape_name(Shape s) {
  switch (s) {
    case Shape::kUniform: return "Uniform";
    case Shape::kCommHeavy: return "CommHeavy";
    case Shape::kCompHeavy: return "CompHeavy";
    case Shape::kBimodal: return "Bimodal";
    case Shape::kDegenerate: return "Degenerate";
  }
  return "?";
}

using GridParam = std::tuple<HeuristicId, Shape>;

class HeuristicGridTest : public ::testing::TestWithParam<GridParam> {};

TEST_P(HeuristicGridTest, FeasibleAndSandwichedAcrossCapacities) {
  const auto [id, shape] = GetParam();
  Rng rng(static_cast<std::uint64_t>(shape) * 1000 + 17);
  for (int iter = 0; iter < 12; ++iter) {
    const Instance inst = make_shaped(rng, shape, 16);
    const Bounds b = compute_bounds(inst);
    const Mem mc = inst.min_capacity();
    if (mc <= 0.0) continue;  // all-zero-memory degenerate draw
    for (double factor : {1.0, 1.125, 1.5, 2.0, 16.0}) {
      const Mem capacity = mc * factor;
      const Schedule s = run_heuristic(id, inst, capacity);
      ASSERT_TRUE(testing::feasible(inst, s, capacity))
          << name_of(id) << "/" << shape_name(shape) << " x" << factor;
      const Time ms = s.makespan(inst);
      EXPECT_GE(ms + 1e-9, b.omim_lower);
      EXPECT_LE(ms, b.sequential_upper + 1e-9);
    }
  }
}

TEST_P(HeuristicGridTest, UnboundedCapacityIsNoWorseThanTightest) {
  // Capacity monotonicity holds for *capacity-independent orders*: with a
  // fixed permutation, every transfer start under a larger capacity is no
  // later than under a smaller one (the active set at the candidate
  // instant only shrinks — see the exchange argument in DESIGN.md). BP's
  // order and the dynamic/corrected selections depend on the capacity
  // itself, where scheduling anomalies are possible; skip those.
  const auto [id, shape] = GetParam();
  const HeuristicCategory cat = info(id).category;
  if (id == HeuristicId::kBP || cat == HeuristicCategory::kDynamic ||
      cat == HeuristicCategory::kCorrected) {
    return;
  }
  Rng rng(static_cast<std::uint64_t>(shape) * 977 + 3);
  for (int iter = 0; iter < 10; ++iter) {
    const Instance inst = make_shaped(rng, shape, 12);
    const Mem mc = inst.min_capacity();
    if (mc <= 0.0) continue;
    const Time tight = heuristic_makespan(id, inst, mc);
    const Time loose = heuristic_makespan(id, inst, mc * 1e6);
    EXPECT_LE(loose, tight + 1e-9)
        << name_of(id) << "/" << shape_name(shape);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, HeuristicGridTest,
    ::testing::Combine(::testing::ValuesIn(all_heuristic_ids()),
                       ::testing::Values(Shape::kUniform, Shape::kCommHeavy,
                                         Shape::kCompHeavy, Shape::kBimodal,
                                         Shape::kDegenerate)),
    [](const ::testing::TestParamInfo<GridParam>& param_info) {
      return std::string(name_of(std::get<0>(param_info.param))) + "_" +
             shape_name(std::get<1>(param_info.param));
    });

TEST(Property, OosimEqualsOmimWithUnboundedMemory) {
  Rng rng(200);
  for (int iter = 0; iter < 100; ++iter) {
    const Instance inst = testing::random_instance(rng, 15);
    EXPECT_NEAR(heuristic_makespan(HeuristicId::kOOSIM, inst, kInfiniteMem),
                omim(inst), 1e-9);
  }
}

TEST(Property, ExactCapacityMonotonicity) {
  // For the *optimal* permutation schedule, more memory never hurts.
  Rng rng(201);
  for (int iter = 0; iter < 30; ++iter) {
    const Instance inst = testing::random_instance(rng, 6);
    const Mem mc = inst.min_capacity();
    if (mc <= 0.0) continue;
    Time prev = kInfiniteTime;
    for (double factor : {1.0, 1.25, 1.5, 2.0, 4.0}) {
      const Time ms = best_common_order(inst, mc * factor).makespan;
      EXPECT_LE(ms, prev + 1e-9) << "factor " << factor;
      prev = ms;
    }
    EXPECT_GE(prev + 1e-9, omim(inst));
  }
}

TEST(Property, GiantCapacityEqualsInfiniteCapacity) {
  Rng rng(202);
  for (int iter = 0; iter < 50; ++iter) {
    const Instance inst = testing::random_instance(rng, 12);
    const Mem total = inst.stats().total_mem;
    for (HeuristicId id :
         {HeuristicId::kOOSIM, HeuristicId::kLCMR, HeuristicId::kOOMAMR}) {
      EXPECT_NEAR(heuristic_makespan(id, inst, total),
                  heuristic_makespan(id, inst, kInfiniteMem), 1e-9)
          << name_of(id);
    }
  }
}

TEST(Property, AutoSchedulerDominatesEveryRegistryHeuristic) {
  Rng rng(203);
  for (int iter = 0; iter < 20; ++iter) {
    const Instance inst = testing::random_instance(rng, 14);
    const Mem capacity = testing::random_capacity(rng, inst);
    const AutoScheduleResult res = auto_schedule(inst, capacity);
    for (HeuristicId id : all_heuristic_ids()) {
      EXPECT_LE(res.makespan,
                heuristic_makespan(id, inst, capacity) + 1e-9);
    }
  }
}

TEST(Property, AllZeroCommTasksScheduleBackToBack) {
  // Pure-compute workload: the link never constrains anything; makespan is
  // the compute sum for every heuristic.
  const Instance inst = Instance::from_comm_comp(
      {{0, 3}, {0, 1}, {0, 4}, {0, 1}, {0, 5}});
  for (HeuristicId id : all_heuristic_ids()) {
    EXPECT_DOUBLE_EQ(heuristic_makespan(id, inst, 1.0), 14.0) << name_of(id);
  }
}

TEST(Property, AllZeroCompTasksOccupyOnlyTheLink) {
  const Instance inst = Instance::from_comm_comp(
      {{3, 0}, {1, 0}, {4, 0}, {1, 0}, {5, 0}});
  for (HeuristicId id : all_heuristic_ids()) {
    EXPECT_DOUBLE_EQ(heuristic_makespan(id, inst, inst.min_capacity()), 14.0)
        << name_of(id);
  }
}

TEST(Property, SingleTaskMakespanIsItsTotalTime) {
  const Instance inst = Instance::from_comm_comp({{2.5, 4.25}});
  for (HeuristicId id : all_heuristic_ids()) {
    EXPECT_DOUBLE_EQ(heuristic_makespan(id, inst, 2.5), 6.75) << name_of(id);
  }
}

}  // namespace
}  // namespace dts
