/// Golden parity for machine-parameterized solving: stripping the times
/// off a generated (byte-annotated) trace and re-binding it with the
/// machine it was generated for must reproduce the generator's
/// time-trace BIT FOR BIT — same comm values, and the same makespan from
/// every registered solver. This pins the "one affine implementation"
/// guarantee end to end: if generation-time costing and bind()-time
/// costing ever diverge by a single ulp, these tests fail.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/solver.hpp"
#include "model/machine.hpp"
#include "trace/generators.hpp"
#include "trace/trace_io.hpp"
#include "trace/transforms.hpp"

namespace dts {
namespace {

/// Small trace configs keep the exact solvers tractable: 5 tasks is the
/// same ceiling the differential test uses for branch-bound's (n!)^2
/// pair-order search.
TraceConfig small_config(std::uint64_t seed) {
  TraceConfig config;
  config.seed = seed;
  config.min_tasks = 5;
  config.max_tasks = 5;
  return config;
}

void expect_bitwise_task_parity(const Instance& generated,
                                const Instance& rebound) {
  ASSERT_EQ(rebound.size(), generated.size());
  for (TaskId i = 0; i < generated.size(); ++i) {
    // EXPECT_EQ, not EXPECT_DOUBLE_EQ: parity is exact, not within ulps.
    EXPECT_EQ(rebound[i].comm, generated[i].comm) << "task " << i;
    EXPECT_EQ(rebound[i].comp, generated[i].comp) << "task " << i;
    EXPECT_EQ(rebound[i].mem, generated[i].mem) << "task " << i;
    EXPECT_EQ(rebound[i].channel, generated[i].channel) << "task " << i;
  }
}

TEST(MachineParity, BindReproducesGeneratedTimesBitForBit) {
  for (ChemistryKernel kernel : {ChemistryKernel::kHartreeFock,
                                 ChemistryKernel::kCoupledClusterSD}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      TraceConfig config;
      config.seed = seed;
      config.min_tasks = 40;
      config.max_tasks = 60;
      const Instance generated = generate_trace(kernel, config);
      ASSERT_TRUE(generated.fully_byte_annotated());
      const Instance bytes_only = strip_comm_times(generated);
      EXPECT_FALSE(bytes_only.fully_bound());
      expect_bitwise_task_parity(generated,
                                 bind(bytes_only, machine_from_name("paper")));
    }
  }
}

TEST(MachineParity, DuplexBindReproducesWritebackTraces) {
  TraceConfig config;
  config.seed = 3;
  config.min_tasks = 30;
  config.max_tasks = 40;
  config.machine = machine_from_name("duplex-pcie");
  const Instance generated =
      generate_trace(ChemistryKernel::kCoupledClusterSD, config);
  ASSERT_EQ(generated.num_channels(), 2u);
  ASSERT_TRUE(generated.fully_byte_annotated());
  expect_bitwise_task_parity(
      generated,
      bind(strip_comm_times(generated), machine_from_name("duplex-pcie")));
}

TEST(MachineParity, TraceRoundTripPreservesParity) {
  // The full interchange loop: generate -> write v3 -> read -> strip ->
  // bind("paper") stays bit-identical (precision 17 round-trips doubles).
  TraceConfig config;
  config.seed = 11;
  config.min_tasks = 30;
  config.max_tasks = 40;
  const Instance generated =
      generate_trace(ChemistryKernel::kHartreeFock, config);
  std::stringstream buffer;
  write_trace(buffer, generated);
  EXPECT_NE(buffer.str().find("# dts-trace v3"), std::string::npos);
  const Instance loaded = read_trace(buffer);
  expect_bitwise_task_parity(
      generated, bind(strip_comm_times(loaded), machine_from_name("paper")));
}

TEST(MachineParity, EverySolverMatchesOnReboundInstances) {
  // The end-to-end criterion: for every registered solver, solving the
  // machine-bound bytes-trace equals solving the generated time-trace,
  // makespan bit for bit. Small instances keep exhaustive/branch-bound
  // feasible; multi-channel-rejecting solvers must reject both sides the
  // same way.
  for (ChemistryKernel kernel : {ChemistryKernel::kHartreeFock,
                                 ChemistryKernel::kCoupledClusterSD}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const Instance generated = generate_trace(kernel, small_config(seed));
      const Instance bytes_only = strip_comm_times(generated);

      SolveRequest generated_request;
      generated_request.instance = generated;
      generated_request.capacity = 1.5 * generated.min_capacity();

      SolveRequest rebound_request;
      rebound_request.instance = bytes_only;
      rebound_request.capacity = generated_request.capacity;
      rebound_request.machine = "paper";

      SolveOptions options;
      options.compute_bounds = false;

      for (const SolverListing& listing : list_solvers()) {
        const SolveResult expected =
            solve(generated_request, listing.name, options);
        const SolveResult actual =
            solve(rebound_request, listing.name, options);
        EXPECT_EQ(actual.makespan, expected.makespan)
            << to_string(kernel) << " seed " << seed << " solver "
            << listing.name;
        EXPECT_EQ(actual.winner, expected.winner) << listing.name;
      }
    }
  }
}

}  // namespace
}  // namespace dts
