/// Tests for the src/model/ subsystem: TransferModel evaluation, the
/// Machine descriptor + MachineRegistry (mirroring the solver registry's
/// contract), bind()'s re-costing semantics, and calibrate()'s parameter
/// recovery on synthetic noisy samples (the paper's §3 fit).

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/bounds.hpp"
#include "core/recommend.hpp"
#include "core/solver.hpp"
#include "model/calibrate.hpp"
#include "model/machine.hpp"
#include "model/transfer_model.hpp"
#include "support/rng.hpp"

namespace dts {
namespace {

TEST(TransferModel, AffineMatchesTheSharedExpression) {
  const AffineTransferModel m(2.0e-6, 1.2e9);
  for (double bytes : {0.0, 1.0, 80000.0, 1.8e9}) {
    EXPECT_EQ(m.transfer_time(bytes), affine_transfer_time(2.0e-6, 1.2e9, bytes));
  }
  EXPECT_DOUBLE_EQ(m.asymptotic_bandwidth(), 1.2e9);
  EXPECT_DOUBLE_EQ(m.zero_byte_latency(), 2.0e-6);
  EXPECT_NE(m.describe().find("affine"), std::string::npos);
}

TEST(TransferModel, AffineRejectsBadParameters) {
  EXPECT_THROW(AffineTransferModel(-1e-6, 1e9), std::invalid_argument);
  EXPECT_THROW(AffineTransferModel(1e-6, 0.0), std::invalid_argument);
  EXPECT_THROW(AffineTransferModel(1e-6, -1e9), std::invalid_argument);
  EXPECT_THROW(AffineTransferModel(std::nan(""), 1e9), std::invalid_argument);
}

TEST(TransferModel, PiecewisePicksTheActiveRegime) {
  const PiecewiseTransferModel m({
      {0.0, 1.0e-6, 1.0e9},      // small messages
      {65536.0, 4.0e-6, 1.0e10}, // large messages
  });
  // Below the threshold: the eager branch.
  EXPECT_DOUBLE_EQ(m.transfer_time(1024.0),
                   affine_transfer_time(1.0e-6, 1.0e9, 1024.0));
  // At and above the threshold: the rendezvous branch.
  EXPECT_DOUBLE_EQ(m.transfer_time(65536.0),
                   affine_transfer_time(4.0e-6, 1.0e10, 65536.0));
  EXPECT_DOUBLE_EQ(m.transfer_time(1.0e8),
                   affine_transfer_time(4.0e-6, 1.0e10, 1.0e8));
  EXPECT_DOUBLE_EQ(m.asymptotic_bandwidth(), 1.0e10);
  EXPECT_DOUBLE_EQ(m.zero_byte_latency(), 1.0e-6);
}

TEST(TransferModel, PiecewiseRejectsBadSegments) {
  using Segment = PiecewiseTransferModel::Segment;
  EXPECT_THROW(PiecewiseTransferModel({}), std::invalid_argument);
  EXPECT_THROW(PiecewiseTransferModel({Segment{10.0, 1e-6, 1e9}}),
               std::invalid_argument);  // must start at 0
  EXPECT_THROW(PiecewiseTransferModel(
                   {Segment{0.0, 1e-6, 1e9}, Segment{0.0, 1e-6, 1e9}}),
               std::invalid_argument);  // thresholds strictly increasing
}

TEST(Machine, ChannelSetSummarizesTheModels) {
  const Machine machine = machine_from_name("duplex-pcie");
  ASSERT_EQ(machine.num_channels(), 2u);
  EXPECT_TRUE(machine.duplex());
  EXPECT_EQ(machine.channel(kChannelH2D).name, "H2D");
  EXPECT_EQ(machine.channel(kChannelD2H).name, "D2H");
  // The affine summary of each channel reproduces the model for affine
  // machines.
  for (const ChannelId id : {kChannelH2D, kChannelD2H}) {
    const TransferModel& model = *machine.channel(id).model;
    EXPECT_DOUBLE_EQ(affine_transfer_time(model.zero_byte_latency(),
                                          model.asymptotic_bandwidth(), 1e6),
                     machine.transfer_time(id, 1e6));
  }
}

TEST(Machine, PresetsShareTheMachineModelConstants) {
  // The generating presets carry the paper's hardware constants exactly:
  // one source of truth for the numbers, and the parity guarantee.
  for (const char* name : {"paper", "cascade"}) {
    const Machine cascade = machine_from_name(name);
    ASSERT_EQ(cascade.num_channels(), 1u) << name;
    for (double bytes : {0.0, 1.0, 176000.0, 1.8e9}) {
      EXPECT_EQ(cascade.transfer_time(kChannelH2D, bytes),
                affine_transfer_time(2.0e-6, 1.2e9, bytes));
    }
    EXPECT_EQ(cascade.compute_time(1e9), 1e9 / 1.2e10);
    EXPECT_EQ(cascade.streaming_time(1e9), 2.0 * 1e9 / 4.0e9);
  }
  const Machine pcie = machine_from_name("pcie-gpu");
  const Machine duplex = machine_from_name("duplex-pcie");
  ASSERT_EQ(pcie.num_channels(), 1u);
  for (double bytes : {0.0, 4096.0, 2.0e9}) {
    EXPECT_EQ(pcie.transfer_time(kChannelH2D, bytes),
              affine_transfer_time(8.0e-6, 1.2e10, bytes));
    EXPECT_EQ(duplex.transfer_time(kChannelH2D, bytes),
              pcie.transfer_time(kChannelH2D, bytes));
    EXPECT_EQ(duplex.transfer_time(kChannelD2H, bytes),
              affine_transfer_time(8.0e-6, 1.1e10, bytes));
  }
  for (const Machine* gpu : {&pcie, &duplex}) {
    EXPECT_EQ(gpu->compute_time(1e9), 1e9 / 7.0e12);
    EXPECT_EQ(gpu->streaming_time(1e9), 2.0 * 1e9 / 4.0e11);
  }
  // Transfer-only presets carry no compute rates.
  EXPECT_FALSE(machine_from_name("nvlink").has_compute_rates());
  EXPECT_FALSE(machine_from_name("summit-node").has_compute_rates());
}

TEST(Machine, RejectsEmptyOrModelLessChannels) {
  EXPECT_THROW(Machine("m", {}), std::invalid_argument);
  EXPECT_THROW(Machine("m", {MachineChannel{"link", nullptr}}),
               std::invalid_argument);
}

TEST(Machine, ValidatesComputeRates) {
  const std::vector<MachineChannel> link = {affine_channel("link", 1e-6, 1e9)};
  EXPECT_THROW(Machine("m", link, -1.0, -1.0), std::invalid_argument);
  EXPECT_THROW(Machine("m", link, 1e9, 0.0), std::invalid_argument);
  EXPECT_THROW(Machine("m", link, 0.0, 1e9), std::invalid_argument);
  EXPECT_THROW(Machine("m", link, std::nan(""), 1e9),
               std::invalid_argument);
  EXPECT_FALSE(Machine("m", link).has_compute_rates());
  const Machine computing("m", link, 2e9, 4e9);
  EXPECT_TRUE(computing.has_compute_rates());
  EXPECT_DOUBLE_EQ(computing.compute_time(1e9), 0.5);
  EXPECT_DOUBLE_EQ(computing.streaming_time(1e9), 0.5);
}

TEST(MachineRegistry, ListsPresetsAndRejectsUnknownNames) {
  const auto listings = list_machines();
  ASSERT_GE(listings.size(), 6u);
  for (const char* name :
       {"paper", "cascade", "pcie-gpu", "duplex-pcie", "summit-node",
        "nvlink"}) {
    EXPECT_TRUE(MachineRegistry::global().contains(name)) << name;
  }
  try {
    (void)machine_from_name("nonexistent-machine");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    // The error lists the available machines, like the solver registry.
    EXPECT_NE(std::string(e.what()).find("paper"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("nvlink"), std::string::npos);
  }
}

TEST(MachineRegistry, RejectsDuplicateAndEmptyKeys) {
  EXPECT_THROW(MachineRegistry::global().add(
                   "paper", MachineChannels{"link"}, "dup",
                   [] { return machine_from_name("paper"); }),
               std::logic_error);
  EXPECT_THROW(MachineRegistry::global().add(
                   "", MachineChannels{"link"}, "empty",
                   [] { return machine_from_name("paper"); }),
               std::logic_error);
  // The declaration itself is mandatory: an empty channel layout is a
  // registration error, not a default.
  EXPECT_THROW(MachineRegistry::global().add(
                   "model-test-undeclared", MachineChannels{}, "no channels",
                   [] { return machine_from_name("paper"); }),
               std::logic_error);
}

TEST(MachineRegistry, DeclaredChannelsMismatchIsCaughtAtMake) {
  // A local registry: the misdeclared machine must not leak into the
  // process-wide one, where any later test building every listed machine
  // would trip over it.
  MachineRegistry registry;
  registry.add("model-test-misdeclared", MachineChannels{"H2D+D2H"},
               "declares duplex, builds a single link", [] {
                 return Machine("model-test-misdeclared",
                                {affine_channel("link", 1.0e-6, 2.0e9)});
               });
  // Listing shows the declaration without building anything...
  const std::vector<MachineListing> rows = registry.listings();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].name, "model-test-misdeclared");
  EXPECT_EQ(rows[0].channels, "H2D+D2H");
  // ...and the first construction trips the declared-vs-built audit.
  EXPECT_THROW((void)registry.make("model-test-misdeclared"),
               std::logic_error);
  EXPECT_FALSE(MachineRegistry::global().contains("model-test-misdeclared"));
}

TEST(MachineRegistry, CustomMachinesPlugIn) {
  static const RegisterMachine reg{
      "model-test-custom", MachineChannels{"link"}, "a custom test machine",
      [] {
        return Machine("model-test-custom",
                       {affine_channel("link", 1.0e-6, 2.0e9)});
      }};
  const Machine m = machine_from_name("model-test-custom");
  EXPECT_DOUBLE_EQ(m.transfer_time(0, 2.0e9), 1.0e-6 + 1.0);
}

TEST(Bind, RecostsByteAnnotatedTasksAndKeepsTimeOnlyOnes) {
  std::vector<Task> tasks;
  tasks.push_back(Task{.id = 0, .comm = 1.0, .comp = 2.0, .mem = 8.0,
                       .comm_bytes = 1.0e6, .name = "annotated"});
  tasks.push_back(Task{.id = 0, .comm = 3.0, .comp = 1.0, .mem = 4.0,
                       .name = "time-only"});
  tasks.push_back(Task{.id = 0, .comm = kUnboundTime, .comp = 0.5, .mem = 2.0,
                       .comm_bytes = 2.0e6, .name = "time-less"});
  const Instance inst(std::move(tasks));
  EXPECT_FALSE(inst.fully_bound());
  EXPECT_FALSE(inst.fully_byte_annotated());

  const Machine machine = machine_from_name("paper");
  const Instance bound = bind(inst, machine);
  EXPECT_TRUE(bound.fully_bound());
  EXPECT_EQ(bound[0].comm, machine.transfer_time(0, 1.0e6));
  EXPECT_DOUBLE_EQ(bound[1].comm, 3.0);  // no bytes: measured time kept
  EXPECT_EQ(bound[2].comm, machine.transfer_time(0, 2.0e6));
  // Everything else is untouched.
  EXPECT_DOUBLE_EQ(bound[0].comp, 2.0);
  EXPECT_DOUBLE_EQ(bound[2].mem, 2.0);
  EXPECT_DOUBLE_EQ(bound[0].comm_bytes, 1.0e6);
}

TEST(Bind, RejectsUncostableAndOffMachineTasks) {
  // Time-less without bytes cannot even form an Instance.
  EXPECT_THROW(
      Instance({Task{.id = 0, .comm = kUnboundTime, .comp = 1.0, .mem = 1.0,
                     .name = "broken"}}),
      std::invalid_argument);
  // A duplex trace cannot bind to a single-link machine.
  std::vector<Task> tasks;
  tasks.push_back(Task{.id = 0, .comm = 1.0, .comp = 0.0, .mem = 1.0,
                       .channel = kChannelD2H, .comm_bytes = 10.0,
                       .name = "wb"});
  const Instance duplex(std::move(tasks));
  EXPECT_THROW((void)bind(duplex, machine_from_name("paper")),
               std::invalid_argument);
}

TEST(Bind, AnalysisEntryPointsRejectUnboundInstances) {
  // The comm-consuming analysis surfaces are defensive too: feeding them
  // the kUnboundTime sentinel must be a loud error, not garbage numbers.
  std::vector<Task> tasks;
  tasks.push_back(Task{.id = 0, .comm = kUnboundTime, .comp = 1.0, .mem = 2.0,
                       .comm_bytes = 100.0, .name = "t"});
  const Instance unbound(std::move(tasks));
  EXPECT_THROW((void)compute_bounds(unbound), std::invalid_argument);
  EXPECT_THROW((void)capacity_aware_bounds(unbound, 4.0),
               std::invalid_argument);
  EXPECT_THROW((void)recommend(unbound, 4.0), std::invalid_argument);
  // And stats() never classifies a time-less task as compute intensive.
  EXPECT_EQ(unbound.stats().n_compute_intensive, 0u);
}

TEST(Solve, BindsLazilyFromMachineNameAndDescriptor) {
  std::vector<Task> tasks;
  for (int i = 0; i < 6; ++i) {
    tasks.push_back(Task{.id = 0, .comm = kUnboundTime,
                         .comp = 0.001 * (i + 1), .mem = 1000.0 * (i + 1),
                         .comm_bytes = 1.0e6 * (i + 1),
                         .name = "t" + std::to_string(i)});
  }
  const Instance inst(std::move(tasks));

  SolveRequest request;
  request.instance = inst;
  request.capacity = 3.0 * inst.min_capacity();

  // Without a machine, a bytes-only instance is unsolvable — loudly.
  try {
    (void)solve(request, "OS");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("time-less"), std::string::npos);
  }

  request.machine = "paper";
  const SolveResult by_name = solve(request, "OS");

  // The MachineRef holds either alternative: an inline descriptor solves
  // identically to the name it was resolved from.
  SolveRequest by_desc_request = request;
  by_desc_request.machine = machine_from_name("paper");
  const SolveResult by_desc = solve(by_desc_request, "OS");
  EXPECT_EQ(by_name.makespan, by_desc.makespan);

  // Unknown names surface the registry's listing error.
  SolveRequest unknown = request;
  unknown.machine = "no-such-machine";
  EXPECT_THROW((void)solve(unknown, "OS"), std::invalid_argument);

  // A faster machine yields a strictly smaller makespan on this
  // comm-dominated instance.
  SolveRequest fast = request;
  fast.machine = "nvlink";
  EXPECT_LT(solve(fast, "OS").makespan, by_name.makespan);
}

TEST(Calibrate, RecoversParametersFromNoisySamples) {
  // Synthetic measurements of a known link with +-0.1% multiplicative
  // noise over a sweep where both regimes of the affine curve carry
  // signal (latency dominates the small sizes, bandwidth the large);
  // the fitted latency and bandwidth must land within 1% of the truth.
  const double true_latency = 5.0e-6;
  const double true_bandwidth = 8.0e9;
  Rng rng(20260729);
  std::vector<TransferSample> samples;
  for (int rep = 0; rep < 50; ++rep) {
    for (double bytes = 1024.0; bytes <= 1.0e6; bytes *= 2.0) {
      const double t =
          affine_transfer_time(true_latency, true_bandwidth, bytes);
      samples.push_back({bytes, t * rng.uniform(0.999, 1.001)});
    }
  }
  const CalibratedFit fit = calibrate(samples);
  EXPECT_NEAR(fit.bandwidth, true_bandwidth, 0.01 * true_bandwidth);
  EXPECT_NEAR(fit.latency, true_latency, 0.01 * true_latency);
  EXPECT_LT(fit.max_rel_error, 0.01);

  // Noise-free samples recover the parameters (near) exactly, and the
  // round-trip through measure_samples closes.
  const auto clean = measure_samples(fit.model(), std::vector<double>{
                                         1e3, 1e5, 1e7, 1e9});
  const CalibratedFit refit = calibrate(clean);
  EXPECT_NEAR(refit.latency, fit.latency, 1e-12);
  EXPECT_NEAR(refit.bandwidth, fit.bandwidth, 1e-3 * fit.bandwidth);
}

TEST(Calibrate, PiecewiseRecoversBothRegimes) {
  const PiecewiseTransferModel truth({
      {0.0, 1.0e-6, 2.0e9},
      {65536.0, 8.0e-6, 4.0e10},
  });
  Rng rng(7);
  std::vector<TransferSample> samples;
  for (int rep = 0; rep < 30; ++rep) {
    for (double bytes = 256.0; bytes <= 1.0e9; bytes *= 2.0) {
      samples.push_back(
          {bytes, truth.transfer_time(bytes) * rng.uniform(0.999, 1.001)});
    }
  }
  const PiecewiseTransferModel fit = calibrate_piecewise(samples, 65536.0);
  ASSERT_EQ(fit.segments().size(), 2u);
  EXPECT_NEAR(fit.segments()[0].bandwidth, 2.0e9, 0.01 * 2.0e9);
  EXPECT_NEAR(fit.segments()[1].bandwidth, 4.0e10, 0.01 * 4.0e10);
  EXPECT_NEAR(fit.segments()[0].latency, 1.0e-6, 0.01 * 1.0e-6);
  // In the large-message regime the intercept is a vanishing fraction of
  // every sample, so multiplicative noise bounds its recovery far looser
  // than the slope's.
  EXPECT_NEAR(fit.segments()[1].latency, 8.0e-6, 0.10 * 8.0e-6);
}

TEST(Calibrate, RejectsDegenerateInputs) {
  EXPECT_THROW((void)calibrate({}), std::invalid_argument);
  const std::vector<TransferSample> one{{100.0, 1.0}};
  EXPECT_THROW((void)calibrate(one), std::invalid_argument);
  const std::vector<TransferSample> same_size{{100.0, 1.0}, {100.0, 2.0}};
  EXPECT_THROW((void)calibrate(same_size), std::invalid_argument);
  const std::vector<TransferSample> shrinking{{100.0, 2.0}, {200.0, 1.0}};
  EXPECT_THROW((void)calibrate(shrinking), std::invalid_argument);
  const std::vector<TransferSample> negative{{100.0, -1.0}, {200.0, 1.0}};
  EXPECT_THROW((void)calibrate(negative), std::invalid_argument);
}

TEST(ChannelSpec, DelegatesToTheSharedAffineImplementation) {
  // A Machine's affine channels and the model layer share one affine
  // implementation — identical bit patterns.
  const MachineChannel link = affine_channel("link", 2.0e-6, 1.2e9);
  const Machine paper = machine_from_name("paper");
  const AffineTransferModel affine(2.0e-6, 1.2e9);
  for (double bytes : {0.0, 1.0, 42896.0, 176000.0, 1.8e9}) {
    const Time expected = affine_transfer_time(2.0e-6, 1.2e9, bytes);
    EXPECT_EQ(link.transfer_time(bytes), expected);
    EXPECT_EQ(paper.transfer_time(kChannelH2D, bytes), expected);
    EXPECT_EQ(affine.transfer_time(bytes), expected);
  }
}

}  // namespace
}  // namespace dts
