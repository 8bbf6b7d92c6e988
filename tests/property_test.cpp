/// Cross-cutting invariants, swept over a parameter grid (TEST_P): every
/// heuristic x several instance shapes x capacity factors. These are the
/// library's safety net: feasibility, bound sandwiching, monotonicity
/// where theory guarantees it, and graceful handling of degenerate tasks,
/// plus the time-unit metamorphic properties: a schedule must not depend
/// on the unit its trace's times are written in.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include "core/bounds.hpp"
#include "core/johnson.hpp"
#include "core/registry.hpp"
#include "core/solver.hpp"
#include "core/validate.hpp"
#include "exact/exhaustive.hpp"
#include "model/machine.hpp"
#include "test_util.hpp"
#include "trace/generators.hpp"
#include "trace/transforms.hpp"

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

// ------------------------------------------------------- time-unit metamorphs

/// One stock trace of each shape the time-unit properties cover: HF,
/// CCSD, a CCSD contraction-chain DAG and a CCSD trace on the duplex PCIe
/// machine (two copy engines), at 150-250 tasks each.
struct UnitSource {
  std::string name;
  Instance inst;
};

std::vector<UnitSource> time_unit_sources() {
  const TraceConfig config{.seed = 1, .min_tasks = 150, .max_tasks = 250};
  TraceConfig duplex = config;
  duplex.machine = machine_from_name("duplex-pcie");
  return {
      {"hf", generate_trace(ChemistryKernel::kHartreeFock, config)},
      {"ccsd", generate_trace(ChemistryKernel::kCoupledClusterSD, config)},
      {"ccsd-dag", generate_ccsd_dag_trace(config)},
      {"ccsd-duplex",
       generate_trace(ChemistryKernel::kCoupledClusterSD, duplex)},
  };
}

/// The 14 paper heuristics plus `auto`, by registry name.
std::vector<std::string> time_unit_solvers() {
  std::vector<std::string> names;
  for (const HeuristicId id : all_heuristic_ids()) {
    names.emplace_back(name_of(id));
  }
  names.emplace_back("auto");
  return names;
}

constexpr double kUnitCapacityFactors[] = {1.0, 1.25, 2.0};

Schedule solve_schedule(const Instance& inst, Mem capacity,
                        const std::string& solver) {
  SolveOptions options;
  options.compute_bounds = false;
  options.parallel_candidates = false;
  return solve({.instance = inst, .capacity = capacity}, solver, options)
      .schedule;
}

TEST(TimeUnit, PowerOfTwoRescalingScalesEveryScheduleExactly) {
  // Multiplying every duration by 2^k is exact in floating point, and so
  // is every sum, max and relative comparison built from them: each
  // schedule must be the unscaled one times 2^k, bit for bit.
  for (const UnitSource& src : time_unit_sources()) {
    for (const double factor : kUnitCapacityFactors) {
      const Mem capacity = factor * src.inst.min_capacity();
      for (const std::string& solver : time_unit_solvers()) {
        const Schedule base = solve_schedule(src.inst, capacity, solver);
        for (int k = -20; k <= 20; ++k) {
          if (k == 0) continue;
          const double s = std::ldexp(1.0, k);
          const Schedule scaled =
              solve_schedule(scale_times(src.inst, s, s), capacity, solver);
          std::size_t moved = 0;
          for (TaskId i = 0; i < src.inst.size(); ++i) {
            if (scaled[i].comm_start != s * base[i].comm_start ||
                scaled[i].comp_start != s * base[i].comp_start) {
              ++moved;
            }
          }
          EXPECT_EQ(moved, 0u) << solver << " on " << src.name << " x"
                               << factor << " mc, times x2^" << k;
        }
      }
    }
  }
}

TEST(TimeUnit, DecimalRescalingKeepsEveryScheduleFeasible) {
  // Times x10^k round, so schedules may move in their last bits, but
  // every one must stay feasible: microsecond-scale traces are as
  // trustworthy as second-scale ones.
  for (const UnitSource& src : time_unit_sources()) {
    for (const double factor : kUnitCapacityFactors) {
      const Mem capacity = factor * src.inst.min_capacity();
      for (int k = -6; k <= 6; ++k) {
        const double s = std::pow(10.0, k);
        const Instance inst = scale_times(src.inst, s, s);
        for (const std::string& solver : time_unit_solvers()) {
          EXPECT_TRUE(testing::feasible(
              inst, solve_schedule(inst, capacity, solver), capacity))
              << solver << " on " << src.name << " x" << factor
              << " mc, times x1e" << k;
        }
      }
    }
  }
}

}  // namespace
}  // namespace dts
