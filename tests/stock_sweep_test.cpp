/// Every paper heuristic on the stock chemistry corpus must emit schedules
/// that validate. The whole sweep (HF and CCSD seeds 1-200, five
/// capacities, 14 heuristics: 28,000 schedules, ~10 s in Release) carries
/// the ctest label `long`; the schedules that once overran the memory
/// capacity run in every tier-1 pass.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/registry.hpp"
#include "test_util.hpp"
#include "trace/generators.hpp"

namespace dts {
namespace {

constexpr double kSweepCapacityFactors[] = {1.0, 1.125, 1.25, 1.5, 2.0};

struct KnownCase {
  HeuristicId heuristic;
  ChemistryKernel kernel;
  std::uint64_t seed;
  double capacity_factor;
};

/// Schedules the engine used to emit with more memory in flight than the
/// capacity: memory released within an absolute ~1 ns tolerance before
/// its computation ended was handed to the next transfer.
constexpr KnownCase kKnownOverruns[] = {
    {HeuristicId::kMAMR, ChemistryKernel::kHartreeFock, 1, 1.25},
    {HeuristicId::kOS, ChemistryKernel::kHartreeFock, 53, 1.25},
    {HeuristicId::kOS, ChemistryKernel::kHartreeFock, 53, 1.5},
    {HeuristicId::kDOCPS, ChemistryKernel::kHartreeFock, 85, 1.5},
    {HeuristicId::kDOCPS, ChemistryKernel::kHartreeFock, 106, 1.5},
    {HeuristicId::kDOCPS, ChemistryKernel::kHartreeFock, 60, 2.0},
    {HeuristicId::kBP, ChemistryKernel::kHartreeFock, 107, 1.25},
    {HeuristicId::kBP, ChemistryKernel::kHartreeFock, 172, 1.25},
    {HeuristicId::kOOLCMR, ChemistryKernel::kCoupledClusterSD, 30, 1.0},
    {HeuristicId::kOOLCMR, ChemistryKernel::kCoupledClusterSD, 37, 1.0},
    {HeuristicId::kOOLCMR, ChemistryKernel::kCoupledClusterSD, 85, 1.0},
    {HeuristicId::kOOMAMR, ChemistryKernel::kCoupledClusterSD, 67, 1.125},
};

std::string describe(HeuristicId id, ChemistryKernel kernel,
                     std::uint64_t seed, double factor) {
  return std::string(name_of(id)) + " on " + std::string(to_string(kernel)) +
         " seed " + std::to_string(seed) + " at " + std::to_string(factor) +
         " mc";
}

TEST(StockSweep, KnownMemoryOverrunsValidate) {
  for (const KnownCase& c : kKnownOverruns) {
    const Instance inst = generate_trace(c.kernel, {.seed = c.seed});
    const Mem capacity = c.capacity_factor * inst.min_capacity();
    EXPECT_TRUE(testing::feasible(
        inst, run_heuristic(c.heuristic, inst, capacity), capacity))
        << describe(c.heuristic, c.kernel, c.seed, c.capacity_factor);
  }
}

TEST(LongSweep, EveryHeuristicValidatesOnStockCorpus) {
  std::size_t invalid = 0;
  for (const ChemistryKernel kernel :
       {ChemistryKernel::kHartreeFock, ChemistryKernel::kCoupledClusterSD}) {
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
      const Instance inst = generate_trace(kernel, {.seed = seed});
      for (const double factor : kSweepCapacityFactors) {
        const Mem capacity = factor * inst.min_capacity();
        for (const HeuristicId id : all_heuristic_ids()) {
          const ::testing::AssertionResult ok = testing::feasible(
              inst, run_heuristic(id, inst, capacity), capacity);
          if (!ok) ++invalid;
          EXPECT_TRUE(ok) << describe(id, kernel, seed, factor);
        }
      }
    }
  }
  EXPECT_EQ(invalid, 0u) << "of 28,000 schedules";
}

}  // namespace
}  // namespace dts
