/// The multi-channel execution core: single-channel parity against the
/// pre-refactor engine (golden makespans recorded from the seed build),
/// duplex H2D/D2H overlap semantics, per-channel validation and the
/// channel-aware lower bounds.

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "core/bounds.hpp"
#include "core/compiled.hpp"
#include "core/registry.hpp"
#include "core/simulate.hpp"
#include "core/solver.hpp"
#include "core/validate.hpp"
#include "exact/branch_bound.hpp"
#include "exact/lower_bounds.hpp"
#include "model/machine.hpp"
#include "trace/generators.hpp"
#include "trace/transforms.hpp"
#include "test_util.hpp"

namespace dts {
namespace {

Task channel_task(ChannelId ch, Time comm, Time comp, Mem mem) {
  Task t;
  t.comm = comm;
  t.comp = comp;
  t.mem = mem;
  t.channel = ch;
  return t;
}

// ---------------------------------------------------------------- parity

/// Golden makespans recorded by running every builtin solver over the
/// paper example instances on the pre-refactor (single-link) engine, with
/// SolveOptions::seed = 7. The channel-aware core must reproduce each of
/// them exactly: a one-channel instance is the legacy model.
struct GoldenCase {
  const char* instance;
  const char* solver;
  double makespan;
};

constexpr GoldenCase kGolden[] = {
    {"table2", "OS", 29},
    {"table2", "OOSIM", 32},
    {"table2", "IOCMS", 32},
    {"table2", "DOCPS", 32},
    {"table2", "IOCCS", 30},
    {"table2", "DOCCS", 29},
    {"table2", "GG", 22.5},
    {"table2", "BP", 29},
    {"table2", "LCMR", 29},
    {"table2", "SCMR", 32},
    {"table2", "MAMR", 32},
    {"table2", "OOLCMR", 32},
    {"table2", "OOSCMR", 32},
    {"table2", "OOMAMR", 32},
    {"table2", "auto", 22.5},
    {"table2", "auto:static", 22.5},
    {"table2", "auto-batch:2", 28},
    {"table2", "local-search", 22.5},
    {"table2", "branch-bound", 22},
    {"table2", "exhaustive", 22.5},
    {"table2", "window:3", 27.5},
    {"table2", "window:3:pair", 27.5},
    {"table3", "OS", 14},
    {"table3", "OOSIM", 15},
    {"table3", "IOCMS", 16},
    {"table3", "DOCPS", 14},
    {"table3", "IOCCS", 16},
    {"table3", "DOCCS", 17},
    {"table3", "GG", 15},
    {"table3", "BP", 16},
    {"table3", "LCMR", 14},
    {"table3", "SCMR", 16},
    {"table3", "MAMR", 14},
    {"table3", "OOLCMR", 14},
    {"table3", "OOSCMR", 14},
    {"table3", "OOMAMR", 14},
    {"table3", "auto", 14},
    {"table3", "auto:static", 14},
    {"table3", "auto-batch:2", 14},
    {"table3", "local-search", 14},
    {"table3", "branch-bound", 14},
    {"table3", "exhaustive", 14},
    {"table3", "window:3", 14},
    {"table3", "window:3:pair", 14},
    {"table4", "OS", 23},
    {"table4", "OOSIM", 24},
    {"table4", "IOCMS", 25},
    {"table4", "DOCPS", 24},
    {"table4", "IOCCS", 23},
    {"table4", "DOCCS", 22},
    {"table4", "GG", 24},
    {"table4", "BP", 23},
    {"table4", "LCMR", 23},
    {"table4", "SCMR", 25},
    {"table4", "MAMR", 24},
    {"table4", "OOLCMR", 24},
    {"table4", "OOSCMR", 24},
    {"table4", "OOMAMR", 24},
    {"table4", "auto", 22},
    {"table4", "auto:static", 22},
    {"table4", "auto-batch:2", 25},
    {"table4", "local-search", 22},
    {"table4", "branch-bound", 22},
    {"table4", "exhaustive", 22},
    {"table4", "window:3", 23},
    {"table4", "window:3:pair", 23},
    {"table5", "OS", 39},
    {"table5", "OOSIM", 38},
    {"table5", "IOCMS", 35},
    {"table5", "DOCPS", 33},
    {"table5", "IOCCS", 35},
    {"table5", "DOCCS", 34},
    {"table5", "GG", 37},
    {"table5", "BP", 39},
    {"table5", "LCMR", 33},
    {"table5", "SCMR", 35},
    {"table5", "MAMR", 33},
    {"table5", "OOLCMR", 33},
    {"table5", "OOSCMR", 35},
    {"table5", "OOMAMR", 33},
    {"table5", "auto", 33},
    {"table5", "auto:static", 33},
    {"table5", "auto-batch:2", 38},
    {"table5", "local-search", 32},
    {"table5", "branch-bound", 32},
    {"table5", "exhaustive", 32},
    {"table5", "window:3", 36},
    {"table5", "window:3:pair", 36},
};

std::pair<Instance, Mem> named_instance(const std::string& name) {
  if (name == "table2") return {testing::table2_instance(), testing::kTable2Capacity};
  if (name == "table3") return {testing::table3_instance(), testing::kTable3Capacity};
  if (name == "table4") return {testing::table4_instance(), testing::kTable4Capacity};
  return {testing::table5_instance(), testing::kTable5Capacity};
}

TEST(SingleChannelParity, EveryBuiltinSolverMatchesTheSeedMakespans) {
  for (const GoldenCase& g : kGolden) {
    const auto [inst, capacity] = named_instance(g.instance);
    SolveRequest request;
    request.instance = inst;
    request.capacity = capacity;
    SolveOptions options;
    options.seed = 7;
    const SolveResult res = solve(request, g.solver, options);
    EXPECT_DOUBLE_EQ(res.makespan, g.makespan)
        << g.instance << " / " << g.solver;
  }
}

TEST(SingleChannelParity, ExplicitSingleChannelSetTakesTheLegacyPath) {
  // Naming the paper's one-link machine is equivalent to naming nothing
  // at all: the instance's tasks carry no byte annotations, so binding
  // keeps their measured times.
  const Instance inst = testing::table4_instance();
  SolveRequest bare{.instance = inst, .capacity = testing::kTable4Capacity};
  SolveRequest with_set = bare;
  with_set.machine = "paper";
  for (const char* solver : {"auto", "SCMR", "window:3", "branch-bound"}) {
    EXPECT_DOUBLE_EQ(solve(bare, solver).makespan,
                     solve(with_set, solver).makespan)
        << solver;
  }
}

// ------------------------------------------------------- engine semantics

TEST(MultiChannelEngine, OppositeDirectionsOverlap) {
  const CompiledInstance ci(Instance(std::vector<Task>{
      channel_task(kChannelH2D, 5, 2, 1), channel_task(kChannelD2H, 3, 0, 1)}));
  Engine s(ci, kInfiniteMem);
  const TaskTimes in = s.start(0);
  const TaskTimes out = s.start(1);
  EXPECT_DOUBLE_EQ(in.comm_start, 0.0);
  EXPECT_DOUBLE_EQ(out.comm_start, 0.0);  // D2H engine was never busy
  EXPECT_DOUBLE_EQ(s.comm_available(kChannelH2D), 5.0);
  EXPECT_DOUBLE_EQ(s.comm_available(kChannelD2H), 3.0);
}

TEST(MultiChannelEngine, SameChannelSerializes) {
  const CompiledInstance ci(Instance(std::vector<Task>{
      channel_task(kChannelH2D, 5, 0, 1), channel_task(kChannelH2D, 2, 0, 1),
      channel_task(kChannelD2H, 1, 0, 1)}));
  Engine s(ci, kInfiniteMem);
  s.start(0);
  const TaskTimes second = s.start(1);
  EXPECT_DOUBLE_EQ(second.comm_start, 5.0);
}

TEST(MultiChannelEngine, MemoryGatesAcrossChannelsNotTransfers) {
  // A D2H transfer waits only for *memory*, not for the H2D engine: task C
  // starts the instant task A's computation releases its footprint, while
  // task B is still mid-transfer on the other engine.
  const Instance inst(std::vector<Task>{
      channel_task(kChannelH2D, 1, 1, 1),    // A: held [0, 2)
      channel_task(kChannelH2D, 4, 1, 1),    // B: comm [1, 5)
      channel_task(kChannelD2H, 1, 1, 1)});  // C
  const Schedule s = simulate_order(inst, inst.submission_order(), 2.0);
  EXPECT_DOUBLE_EQ(s[1].comm_start, 1.0);
  EXPECT_DOUBLE_EQ(s[2].comm_start, 2.0);  // A's release, mid-B
  EXPECT_TRUE(testing::feasible(inst, s, 2.0));
}

TEST(MultiChannelEngine, RejectsUnknownChannel) {
  const CompiledInstance ci(
      Instance(std::vector<Task>{channel_task(1, 1, 1, 0)}));
  const Engine::Snapshot one_link;  // a single clock
  Engine s(ci, kInfiniteMem, &one_link);
  EXPECT_THROW((void)s.start(0), std::out_of_range);
  EXPECT_THROW((void)s.comm_available(1), std::out_of_range);
}

TEST(MultiChannelEngine, SnapshotRoundTripKeepsChannelClocks) {
  const CompiledInstance ci(Instance(std::vector<Task>{
      channel_task(kChannelH2D, 5, 2, 1), channel_task(kChannelD2H, 3, 0, 1)}));
  Engine s(ci, kInfiniteMem);
  s.start(0);
  s.start(1);
  const Engine::Snapshot snap = s.snapshot();
  ASSERT_EQ(snap.comm_available.size(), 2u);
  const Engine r(ci, kInfiniteMem, &snap);
  EXPECT_EQ(r.num_channels(), 2u);
  EXPECT_DOUBLE_EQ(r.comm_available(kChannelH2D), 5.0);
  EXPECT_DOUBLE_EQ(r.comm_available(kChannelD2H), 3.0);
}

// ------------------------------------------------------------ validation

TEST(MultiChannelValidation, CrossChannelOverlapIsFeasible) {
  std::vector<Task> tasks = {channel_task(kChannelH2D, 4, 1, 1),
                             channel_task(kChannelD2H, 4, 0, 1)};
  const Instance inst(std::move(tasks));
  Schedule sched(2);
  sched.set(0, 0.0, 4.0);
  sched.set(1, 0.0, 5.0);  // same transfer window, different engine
  EXPECT_TRUE(validate_schedule(inst, sched, kInfiniteMem).ok());
}

TEST(MultiChannelValidation, SameChannelOverlapIsCaught) {
  std::vector<Task> tasks = {channel_task(kChannelD2H, 4, 1, 1),
                             channel_task(kChannelD2H, 4, 0, 1)};
  const Instance inst(std::move(tasks));
  Schedule sched(2);
  sched.set(0, 0.0, 4.0);
  sched.set(1, 2.0, 6.0);
  const ValidationReport report =
      validate_schedule(inst, sched, kInfiniteMem);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.violations.front().kind, Violation::Kind::kCommOverlap);
}

// ----------------------------------------------------------- duplex wins

Instance symmetric_duplex_workload() {
  std::vector<Task> tasks;
  for (int i = 0; i < 8; ++i) {
    tasks.push_back(channel_task(kChannelH2D, 2.0, 1.0, 1.0));
    tasks.push_back(channel_task(kChannelD2H, 2.0, 0.0, 1.0));
  }
  return Instance(std::move(tasks));
}

TEST(DuplexWins, OverlappingDirectionsBeatTheSerializedLink) {
  const Instance duplex = symmetric_duplex_workload();
  const Instance single = merged_channels(duplex);
  ASSERT_EQ(single.num_channels(), 1u);
  const Mem capacity = 4.0;
  for (HeuristicId id : {HeuristicId::kOS, HeuristicId::kSCMR,
                         HeuristicId::kOOSIM, HeuristicId::kOOMAMR}) {
    const Time serialized = heuristic_makespan(id, single, capacity);
    const Time overlapped = heuristic_makespan(id, duplex, capacity);
    EXPECT_TRUE(definitely_less(overlapped, serialized))
        << name_of(id) << ": duplex " << overlapped << " vs single "
        << serialized;
    EXPECT_TRUE(testing::feasible(duplex, run_heuristic(id, duplex, capacity),
                                  capacity));
  }
}

TEST(DuplexWins, GeneratedDuplexTracesBeatTheirMergedTwin) {
  TraceConfig config;
  config.seed = 3;
  config.min_tasks = 60;
  config.max_tasks = 80;
  config.machine = machine_from_name("duplex-pcie");
  for (ChemistryKernel kernel :
       {ChemistryKernel::kHartreeFock, ChemistryKernel::kCoupledClusterSD}) {
    const Instance duplex = generate_trace(kernel, config);
    EXPECT_EQ(duplex.num_channels(), 2u);
    const Instance single = merged_channels(duplex);
    const Mem capacity = 2.0 * duplex.min_capacity();
    const Time overlapped =
        heuristic_makespan(HeuristicId::kSCMR, duplex, capacity);
    const Time serialized =
        heuristic_makespan(HeuristicId::kSCMR, single, capacity);
    EXPECT_TRUE(definitely_less(overlapped, serialized)) << to_string(kernel);
  }
}

TEST(DuplexWins, HalfDuplexMachineGeneratesLegacyTraces) {
  TraceConfig config;
  config.seed = 3;
  config.min_tasks = 40;
  config.max_tasks = 50;
  const Instance inst =
      generate_trace(ChemistryKernel::kHartreeFock, config);
  EXPECT_TRUE(inst.single_channel());
}

// ---------------------------------------------------------------- bounds

TEST(ChannelBounds, PerChannelSumsAndAreaBound) {
  const Instance inst = symmetric_duplex_workload();
  const Bounds b = compute_bounds(inst);
  ASSERT_EQ(b.sum_comm_per_channel.size(), 2u);
  EXPECT_DOUBLE_EQ(b.sum_comm_per_channel[kChannelH2D], 16.0);
  EXPECT_DOUBLE_EQ(b.sum_comm_per_channel[kChannelD2H], 16.0);
  EXPECT_DOUBLE_EQ(b.sum_comm, 32.0);
  // Area: max(per-channel load 16, sum comp 8), not the 32 a single link
  // would have to carry.
  EXPECT_DOUBLE_EQ(b.area_lower, 16.0);
  EXPECT_DOUBLE_EQ(b.sequential_upper, 40.0);
}

Instance random_duplex_instance(Rng& rng, std::size_t n) {
  std::vector<Task> tasks;
  for (std::size_t i = 0; i < n; ++i) {
    Task t;
    t.comm = rng.uniform(0.0, 10.0);
    t.comp = rng.uniform(0.0, 10.0);
    t.mem = rng.uniform(0.1, 10.0);
    t.channel = rng.chance(0.5) ? kChannelD2H : kChannelH2D;
    tasks.push_back(std::move(t));
  }
  return Instance(std::move(tasks));
}

TEST(ChannelBounds, LowerBoundsSandwichEveryHeuristicOnDuplexInstances) {
  Rng rng(404);
  for (int iter = 0; iter < 40; ++iter) {
    const Instance inst = random_duplex_instance(rng, 14);
    const Mem capacity = testing::random_capacity(rng, inst);
    const CapacityAwareBounds lb = capacity_aware_bounds(inst, capacity);
    const Bounds b = compute_bounds(inst);
    for (HeuristicId id : all_heuristic_ids()) {
      const Schedule s = run_heuristic(id, inst, capacity);
      ASSERT_TRUE(testing::feasible(inst, s, capacity)) << name_of(id);
      const Time ms = s.makespan(inst);
      EXPECT_GE(ms + 1e-9, lb.combined) << name_of(id);
      EXPECT_GE(ms + 1e-9, b.omim_lower) << name_of(id);
      EXPECT_LE(ms, b.sequential_upper + 1e-9) << name_of(id);
    }
  }
}

// ------------------------------------------------------- solver surface

TEST(ChannelSolve, MismatchedChannelSetIsRejected) {
  SolveRequest request;
  request.instance = symmetric_duplex_workload();
  request.capacity = 4.0;
  request.machine = "paper";  // one engine; bind() rejects channel 1
  EXPECT_THROW((void)solve(request, "auto"), std::invalid_argument);
}

TEST(ChannelSolve, SimulationSolversHandleDuplexRequests) {
  SolveRequest request;
  request.instance = symmetric_duplex_workload();
  request.capacity = 4.0;
  request.machine = "duplex-pcie";
  for (const char* solver : {"auto", "SCMR", "window:3", "local-search",
                             "auto-batch:4"}) {
    const SolveResult res = solve(request, solver);
    EXPECT_TRUE(
        validate_schedule(request.instance, res.schedule, request.capacity)
            .ok())
        << solver;
    EXPECT_GE(res.makespan + 1e-9, res.bounds.combined) << solver;
  }
}

TEST(ChannelSolve, PairOrderSolversAcceptMultiChannelInstances) {
  // Since the per-channel order search, branch-bound and window:K:pair
  // solve duplex instances instead of rejecting them; the registry
  // listings report the capability.
  std::vector<Task> tasks = {channel_task(kChannelH2D, 2, 3, 2),
                             channel_task(kChannelH2D, 4, 1, 3),
                             channel_task(kChannelD2H, 3, 0, 2),
                             channel_task(kChannelD2H, 1, 2, 1),
                             channel_task(kChannelH2D, 1, 4, 1)};
  SolveRequest request;
  request.instance = Instance(std::move(tasks));
  request.capacity = 5.0;
  const Bounds bounds = compute_bounds(request.instance);
  const SolveResult bb = solve(request, "branch-bound");
  EXPECT_TRUE(
      testing::feasible(request.instance, bb.schedule, request.capacity));
  EXPECT_GE(bb.makespan + 1e-9, bounds.omim_lower);
  // The pair search covers every permutation schedule, so it can only
  // improve on the exhaustive common-order optimum.
  const SolveResult ex = solve(request, "exhaustive");
  EXPECT_LE(bb.makespan, ex.makespan + 1e-9);

  // A leading window containing only channel-0 tasks used to be the
  // dangerous configuration (carried multi-clock snapshot mid-search);
  // it now solves cleanly.
  std::vector<Task> mixed = {channel_task(kChannelH2D, 1, 1, 1),
                             channel_task(kChannelH2D, 2, 1, 1),
                             channel_task(kChannelD2H, 1, 0, 1)};
  SolveRequest mostly_single;
  mostly_single.instance = Instance(std::move(mixed));
  mostly_single.capacity = 4.0;
  const SolveResult lp = solve(mostly_single, "window:2:pair");
  EXPECT_TRUE(testing::feasible(mostly_single.instance, lp.schedule,
                                mostly_single.capacity));
}

TEST(ChannelSolve, TasksRejectOutOfRangeChannels) {
  Task t = channel_task(kMaxChannels, 1, 1, 1);
  EXPECT_FALSE(is_valid(t));
  EXPECT_THROW((void)Instance(std::vector<Task>{t}), std::invalid_argument);
  // The wrap-around value that would alias back to "one channel" in
  // 32-bit arithmetic is equally invalid.
  t.channel = std::numeric_limits<ChannelId>::max();
  EXPECT_THROW((void)Instance(std::vector<Task>{t}), std::invalid_argument);
}

TEST(ChannelSet, ValidatesItsSpecs) {
  // A Machine's channel list is validated where it is built: no channels
  // at all, a non-positive bandwidth or a negative latency is rejected.
  EXPECT_THROW(Machine("m", {}), std::invalid_argument);
  EXPECT_THROW((void)affine_channel("x", 0.0, 0.0), std::invalid_argument);
  EXPECT_THROW((void)affine_channel("x", -1.0, 1e9), std::invalid_argument);
  const Machine duplex("m",
                       {affine_channel("H2D", 1e-6, 2e9),
                        affine_channel("D2H", 1e-6, 1e9)});
  EXPECT_EQ(duplex.num_channels(), 2u);
  EXPECT_TRUE(duplex.duplex());
  EXPECT_EQ(duplex.channel(kChannelH2D).name, "H2D");
  EXPECT_EQ(duplex.channel(kChannelD2H).name, "D2H");
  EXPECT_GT(duplex.transfer_time(kChannelD2H, 1e9),
            duplex.transfer_time(kChannelH2D, 1e9));
}

}  // namespace
}  // namespace dts
