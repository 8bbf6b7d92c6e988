#include "core/solver.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>

#include "core/batch.hpp"
#include "core/johnson.hpp"
#include "core/registry.hpp"
#include "exact/branch_bound.hpp"
#include "exact/exhaustive.hpp"
#include "exact/window_solver.hpp"
#include "heuristics/local_search.hpp"
#include "test_util.hpp"
#include "trace/generators.hpp"

namespace dts {
namespace {

SolveRequest request_for(const Instance& inst, Mem capacity) {
  SolveRequest request;
  request.instance = inst;
  request.capacity = capacity;
  return request;
}

void expect_same_schedule(const Schedule& a, const Schedule& b) {
  ASSERT_EQ(a.size(), b.size());
  for (TaskId i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].comm_start, b[i].comm_start) << "task " << i;
    EXPECT_DOUBLE_EQ(a[i].comp_start, b[i].comp_start) << "task " << i;
  }
}

// ---------------------------------------------------------------- registry

TEST(SolverRegistry, EveryListedNameResolves) {
  const std::vector<SolverListing> listings = list_solvers();
  // 14 paper heuristics + auto, auto-batch, local-search, branch-bound,
  // exhaustive, window.
  EXPECT_GE(listings.size(), 20u);
  for (const SolverListing& listing : listings) {
    const auto solver = SolverRegistry::global().make(listing.name);
    ASSERT_NE(solver, nullptr) << listing.name;
  }
}

TEST(SolverRegistry, EveryHeuristicAcronymIsRegistered) {
  for (const HeuristicInfo& h : all_heuristics()) {
    EXPECT_TRUE(SolverRegistry::global().contains(h.name)) << h.name;
  }
}

TEST(SolverRegistry, UnknownNameThrowsListingAvailableSolvers) {
  try {
    (void)SolverRegistry::global().make("definitely-not-a-solver");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("available:"), std::string::npos) << message;
    EXPECT_NE(message.find("OOLCMR"), std::string::npos) << message;
    EXPECT_NE(message.find("auto-batch"), std::string::npos) << message;
  }
}

TEST(SolverRegistry, DuplicateKeyThrows) {
  EXPECT_THROW(SolverRegistry::global().add(
                   "auto", "", "dup", SolverTraits{},
                   [](const SolverSpec&) -> std::unique_ptr<Solver> {
                     return nullptr;
                   }),
               std::logic_error);
}

TEST(SolverRegistry, KeysWithColonRejected) {
  EXPECT_THROW(SolverRegistry::global().add(
                   "bad:key", "", "", SolverTraits{},
                   [](const SolverSpec&) -> std::unique_ptr<Solver> {
                     return nullptr;
                   }),
               std::logic_error);
}

TEST(SolverSpecTest, ParsesBaseAndArguments) {
  const SolverSpec plain = SolverSpec::parse("OOLCMR");
  EXPECT_EQ(plain.base, "OOLCMR");
  EXPECT_TRUE(plain.args.empty());

  const SolverSpec batch = SolverSpec::parse("auto-batch:16");
  EXPECT_EQ(batch.base, "auto-batch");
  ASSERT_EQ(batch.args.size(), 1u);
  EXPECT_EQ(batch.args[0], "16");
  EXPECT_EQ(batch.size_arg(0, 4), 16u);
  EXPECT_EQ(batch.size_arg(1, 4), 4u);  // absent -> fallback

  const SolverSpec window = SolverSpec::parse("window:5:pair");
  EXPECT_EQ(window.base, "window");
  ASSERT_EQ(window.args.size(), 2u);
  EXPECT_EQ(window.args[1], "pair");

  EXPECT_THROW((void)SolverSpec::parse(""), std::invalid_argument);
  EXPECT_THROW((void)SolverSpec::parse("auto-batch:zero").size_arg(0, 1),
               std::invalid_argument);
  EXPECT_THROW((void)SolverSpec::parse("auto-batch:0").size_arg(0, 1),
               std::invalid_argument);
}

/// A strategy defined entirely outside the core: registered via the
/// self-registration helper, resolvable by name with no enum edits.
class SubmissionOrderTwiceSolver final : public Solver {
 public:
  [[nodiscard]] SolveResult run(const SolveRequest& request,
                                const SolveOptions&) const override {
    SolveResult result;
    result.schedule = run_heuristic(HeuristicId::kOS, request.instance,
                                    request.capacity);
    result.makespan = request.instance.empty()
                          ? 0.0
                          : result.schedule.makespan(request.instance);
    result.winner = "test-submission";
    return result;
  }
};

const RegisterSolver kRegisterTestSolver{
    "test-submission", "", "test-only: the submission order",
    SolverTraits{.batch = false, .dag = true}, [](const SolverSpec&) {
      return std::make_unique<SubmissionOrderTwiceSolver>();
    }};

/// Factory calls of "test-counted", which accepts one ':' argument.
std::atomic<int> g_counted_factory_calls{0};

const RegisterSolver kRegisterCountedSolver{
    "test-counted", "[:ARG]", "test-only: the submission order, counted",
    SolverTraits{.batch = false, .dag = true}, [](const SolverSpec&) {
      ++g_counted_factory_calls;
      return std::make_unique<SubmissionOrderTwiceSolver>();
    }};

TEST(SolverRegistry, SelfRegisteredSolverIsCallable) {
  const Instance inst = testing::table3_instance();
  const SolveResult res = solve(request_for(inst, testing::kTable3Capacity),
                                "test-submission");
  EXPECT_EQ(res.winner, "test-submission");
  EXPECT_DOUBLE_EQ(res.makespan, heuristic_makespan(HeuristicId::kOS, inst,
                                                    testing::kTable3Capacity));
}

// ------------------------------------------------- parity with legacy API

/// The paper's worked examples (Tables 3-5 / Figs. 4-6): solve() must
/// reproduce run_heuristic bit-for-bit for every acronym.
TEST(SolveParity, PaperExamplesMatchRunHeuristic) {
  const std::vector<std::pair<Instance, Mem>> cases{
      {testing::table3_instance(), testing::kTable3Capacity},
      {testing::table4_instance(), testing::kTable4Capacity},
      {testing::table5_instance(), testing::kTable5Capacity},
  };
  for (const auto& [inst, capacity] : cases) {
    for (const HeuristicInfo& h : all_heuristics()) {
      const SolveResult res =
          solve(request_for(inst, capacity), std::string(h.name));
      const Schedule legacy = run_heuristic(h.id, inst, capacity);
      EXPECT_DOUBLE_EQ(res.makespan, legacy.makespan(inst)) << h.name;
      expect_same_schedule(res.schedule, legacy);
      EXPECT_EQ(res.winner, h.name);
    }
  }
}

TEST(SolveParity, RandomInstancesMatchRunHeuristic) {
  Rng rng(0x5EED);
  for (int iter = 0; iter < 10; ++iter) {
    const Instance inst = testing::random_instance(rng, 12);
    const Mem capacity = testing::random_capacity(rng, inst);
    for (const HeuristicInfo& h : all_heuristics()) {
      const SolveResult res =
          solve(request_for(inst, capacity), std::string(h.name));
      EXPECT_DOUBLE_EQ(res.makespan,
                       heuristic_makespan(h.id, inst, capacity))
          << h.name;
    }
  }
}

TEST(SolveParity, GeneratedTracesMatchLegacyEntryPoints) {
  for (ChemistryKernel kernel :
       {ChemistryKernel::kHartreeFock, ChemistryKernel::kCoupledClusterSD}) {
    TraceConfig config;
    config.seed = 42;
    config.min_tasks = 30;
    config.max_tasks = 40;
    const Instance inst = generate_trace(kernel, config);
    const Mem capacity = 1.25 * inst.min_capacity();
    const SolveRequest request = request_for(inst, capacity);

    for (const HeuristicInfo& h : all_heuristics()) {
      EXPECT_DOUBLE_EQ(solve(request, std::string(h.name)).makespan,
                       heuristic_makespan(h.id, inst, capacity))
          << h.name;
    }
    const AutoScheduleResult legacy_auto = auto_schedule(inst, capacity);
    const SolveResult via_auto = solve(request, "auto");
    EXPECT_EQ(via_auto.winner, name_of(legacy_auto.best));
    EXPECT_DOUBLE_EQ(via_auto.makespan, legacy_auto.makespan);

    const BatchAutoResult legacy_batch = schedule_in_batches_auto(
        inst, capacity, 16, all_heuristic_ids());
    const SolveResult via_batch = solve(request, "auto-batch:16");
    expect_same_schedule(via_batch.schedule, legacy_batch.schedule);
  }
}

TEST(SolveParity, AutoMatchesAutoSchedule) {
  Rng rng(0xA070);
  for (int iter = 0; iter < 8; ++iter) {
    const Instance inst = testing::random_instance(rng, 14);
    const Mem capacity = testing::random_capacity(rng, inst);
    const AutoScheduleResult legacy = auto_schedule(inst, capacity);
    for (const bool parallel : {false, true}) {
      SolveOptions options;
      options.parallel_candidates = parallel;
      const SolveResult res =
          solve(request_for(inst, capacity), "auto", options);
      EXPECT_EQ(res.winner, name_of(legacy.best)) << "parallel=" << parallel;
      EXPECT_DOUBLE_EQ(res.makespan, legacy.makespan);
      expect_same_schedule(res.schedule, legacy.schedule);
      ASSERT_EQ(res.outcomes.size(), legacy.outcomes.size());
      for (std::size_t k = 0; k < res.outcomes.size(); ++k) {
        EXPECT_EQ(res.outcomes[k].name, name_of(legacy.outcomes[k].id));
        EXPECT_DOUBLE_EQ(res.outcomes[k].makespan,
                         legacy.outcomes[k].makespan);
      }
      EXPECT_DOUBLE_EQ(res.bounds.omim, omim(inst));
    }
  }
}

TEST(SolveParity, AutoFamilySubsetsMatchAutoSchedule) {
  const Instance inst = testing::table4_instance();
  const std::vector<std::pair<std::string, HeuristicCategory>> families{
      {"auto:static", HeuristicCategory::kStatic},
      {"auto:dynamic", HeuristicCategory::kDynamic},
      {"auto:corrected", HeuristicCategory::kCorrected},
  };
  for (const auto& [name, category] : families) {
    const std::vector<HeuristicId> candidates = heuristics_in(category);
    const AutoScheduleResult legacy =
        auto_schedule(inst, testing::kTable4Capacity, candidates);
    const SolveResult res =
        solve(request_for(inst, testing::kTable4Capacity), name);
    EXPECT_EQ(res.winner, name_of(legacy.best)) << name;
    EXPECT_DOUBLE_EQ(res.makespan, legacy.makespan) << name;
  }
}

TEST(SolveParity, BatchWindowMatchesScheduleInBatches) {
  Rng rng(0xBA7C);
  for (int iter = 0; iter < 5; ++iter) {
    const Instance inst = testing::random_instance(rng, 15);
    const Mem capacity = testing::random_capacity(rng, inst);
    for (const HeuristicInfo& h : all_heuristics()) {
      SolveRequest request = request_for(inst, capacity);
      request.batch_size = 4;
      const SolveResult res = solve(request, std::string(h.name));
      const Schedule legacy = schedule_in_batches(h.id, inst, capacity, 4);
      EXPECT_DOUBLE_EQ(res.makespan, legacy.makespan(inst)) << h.name;
      expect_same_schedule(res.schedule, legacy);
    }
  }
}

TEST(SolveParity, AutoBatchMatchesScheduleInBatchesAuto) {
  Rng rng(0xAB17);
  const Instance inst = testing::random_instance(rng, 18);
  const Mem capacity = inst.min_capacity() * 1.3;
  const BatchAutoResult legacy =
      schedule_in_batches_auto(inst, capacity, 7, all_heuristic_ids());
  // Batch size via the name and via the request must agree.
  const SolveResult via_name =
      solve(request_for(inst, capacity), "auto-batch:7");
  SolveRequest request = request_for(inst, capacity);
  request.batch_size = 7;
  const SolveResult via_request = solve(request, "auto");
  for (const SolveResult* res : {&via_name, &via_request}) {
    expect_same_schedule(res->schedule, legacy.schedule);
    EXPECT_DOUBLE_EQ(res->makespan, legacy.schedule.makespan(inst));
  }
  // Win counts mirror the legacy per-batch winners.
  std::size_t total_wins = 0;
  for (const CandidateOutcome& o : via_name.outcomes) {
    total_wins += o.batch_wins;
    const auto id = heuristic_from_name(o.name);
    ASSERT_TRUE(id.has_value());
    EXPECT_EQ(o.batch_wins,
              static_cast<std::size_t>(std::count(legacy.winners.begin(),
                                                  legacy.winners.end(), *id)));
  }
  EXPECT_EQ(total_wins, legacy.winners.size());
}

TEST(SolveParity, LocalSearchMatchesLegacy) {
  const Instance inst = testing::table5_instance();
  SolveOptions options;
  options.max_iterations = 500;
  options.seed = 9;
  LocalSearchOptions legacy_options;
  legacy_options.max_iterations = 500;
  legacy_options.seed = 9;
  const LocalSearchResult legacy =
      schedule_local_search(inst, testing::kTable5Capacity, legacy_options);
  const SolveResult res = solve(request_for(inst, testing::kTable5Capacity),
                                "local-search", options);
  EXPECT_DOUBLE_EQ(res.makespan, legacy.makespan);
  expect_same_schedule(res.schedule, legacy.schedule);
  ASSERT_FALSE(res.outcomes.empty());
  EXPECT_DOUBLE_EQ(res.outcomes.front().makespan, legacy.initial_makespan);
  EXPECT_EQ(res.evaluations, legacy.iterations);
}

TEST(SolveParity, WindowMatchesScheduleWindowed) {
  const Instance inst = testing::table5_instance();
  const Mem capacity = testing::kTable5Capacity;
  const Schedule lp5 = schedule_windowed(inst, capacity, {.window = 5});
  const SolveResult res = solve(request_for(inst, capacity), "window:5");
  expect_same_schedule(res.schedule, lp5);
  EXPECT_EQ(res.winner, "lp.5");

  const Schedule pair3 = schedule_windowed(
      inst, capacity, {.window = 3, .mode = WindowMode::kPairOrder});
  const SolveResult res_pair =
      solve(request_for(inst, capacity), "window:3:pair");
  expect_same_schedule(res_pair.schedule, pair3);
}

TEST(SolveParity, ExactSolversMatchOnTable2) {
  // Proposition 1's witness: pair orders reach 22, permutations only 23.
  const Instance inst = testing::table2_instance();
  const SolveResult bb =
      solve(request_for(inst, testing::kTable2Capacity), "branch-bound");
  EXPECT_DOUBLE_EQ(bb.makespan, 22.0);
  EXPECT_FALSE(bb.cancelled);
  // The adapter passes the capacity-aware lower bound for its
  // proved-optimal early exit; hand the legacy call the same bound so the
  // two searches scan the identical pair sequence.
  PairOrderOptions legacy_options;
  legacy_options.lower_bound =
      capacity_aware_bounds(inst, testing::kTable2Capacity).combined;
  const PairOrderResult legacy =
      best_pair_order(inst, testing::kTable2Capacity, legacy_options);
  EXPECT_DOUBLE_EQ(bb.makespan, legacy.makespan);
  EXPECT_EQ(bb.evaluations, legacy.pairs_simulated);
  // On this instance the pair-order optimum (22) matches the combined
  // capacity-aware bound, so the search proves optimality early instead
  // of scanning all (6!)^2 pairs.
  EXPECT_TRUE(legacy.proved_optimal);
  EXPECT_LT(legacy.pairs_simulated, 518400u);

  const SolveResult ex =
      solve(request_for(inst, testing::kTable2Capacity), "exhaustive");
  const ExhaustiveResult legacy_ex =
      best_common_order(inst, testing::kTable2Capacity);
  EXPECT_DOUBLE_EQ(ex.makespan, legacy_ex.makespan);
  // Proposition 1: independent comm/comp orders strictly beat the best
  // permutation schedule on this instance.
  EXPECT_GT(ex.makespan, bb.makespan);
}

// ------------------------------------------------ deadline / cancellation

TEST(SolveCancellation, PreCancelledTokenStopsBranchBoundImmediately) {
  const Instance inst = testing::table2_instance();  // 6 distinct tasks
  SolveOptions options;
  options.cancel = CancellationToken::source();
  options.cancel.cancel();
  const SolveResult res = solve(request_for(inst, testing::kTable2Capacity),
                                "branch-bound", options);
  EXPECT_TRUE(res.cancelled);
  EXPECT_EQ(res.evaluations, 0u);  // stopped before the first pair
  // The fallback is still a complete feasible schedule.
  EXPECT_TRUE(res.schedule.complete());
  EXPECT_TRUE(
      testing::feasible(inst, res.schedule, testing::kTable2Capacity));
  EXPECT_DOUBLE_EQ(res.makespan, heuristic_makespan(HeuristicId::kOS, inst,
                                                    testing::kTable2Capacity));
}

TEST(SolveCancellation, ExpiredDeadlineStopsBranchBound) {
  const Instance inst = testing::table2_instance();
  SolveOptions options;
  options.time_limit_seconds = 0.0;
  const SolveResult res = solve(request_for(inst, testing::kTable2Capacity),
                                "branch-bound", options);
  EXPECT_TRUE(res.cancelled);
  EXPECT_TRUE(res.schedule.complete());
}

TEST(SolveCancellation, UnfiredTokenDoesNotPerturbTheSearch) {
  const Instance inst = testing::table4_instance();
  SolveOptions options;
  options.cancel = CancellationToken::source();  // armed but never fired
  options.time_limit_seconds = 3600.0;
  const SolveResult res = solve(request_for(inst, testing::kTable4Capacity),
                                "branch-bound", options);
  EXPECT_FALSE(res.cancelled);
  const PairOrderResult legacy =
      best_pair_order(inst, testing::kTable4Capacity);
  EXPECT_DOUBLE_EQ(res.makespan, legacy.makespan);
}

TEST(CancellationTokenTest, SharedFlagSemantics) {
  const CancellationToken inert;
  EXPECT_FALSE(inert.cancellable());
  inert.cancel();  // no-op
  EXPECT_FALSE(inert.cancelled());

  const CancellationToken token = CancellationToken::source();
  const CancellationToken copy = token;
  EXPECT_TRUE(copy.cancellable());
  EXPECT_FALSE(copy.cancelled());
  token.cancel();
  EXPECT_TRUE(copy.cancelled());
}

// ------------------------------------------------------------- validation

TEST(Solve, RejectsCapacityBelowMinimum) {
  const Instance inst = testing::table3_instance();
  EXPECT_THROW((void)solve(request_for(inst, 1.0), "OS"),
               std::invalid_argument);
}

TEST(Solve, RejectsZeroBatch) {
  SolveRequest request = request_for(testing::table3_instance(),
                                     testing::kTable3Capacity);
  request.batch_size = 0;
  EXPECT_THROW((void)solve(request, "OS"), std::invalid_argument);
}

TEST(Solve, HeuristicNamesTakeNoArguments) {
  const SolveRequest request =
      request_for(testing::table3_instance(), testing::kTable3Capacity);
  EXPECT_THROW((void)solve(request, "OS:3"), std::invalid_argument);
}

/// The invalid_argument message `fn` throws, or "" when it throws none.
template <typename Fn>
std::string thrown_message(Fn&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

/// Every listing, given one ':' argument more than its `params` declares,
/// is rejected with the registry's arity message.
TEST(Solve, ArgumentsBeyondTheDeclaredParamsAreRejected) {
  const SolveRequest request =
      request_for(testing::table3_instance(), testing::kTable3Capacity);
  for (const SolverListing& listing : list_solvers()) {
    const auto declared = static_cast<std::size_t>(
        std::count(listing.params.begin(), listing.params.end(), ':'));
    std::string name = listing.name;
    for (std::size_t i = 0; i <= declared; ++i) name += ":1";
    std::string expected;
    if (declared == 0) {
      expected = "solver '" + listing.name +
                 "' takes no ':' arguments (got '" + name + "')";
    } else {
      ASSERT_LE(declared, 2u) << listing.name;
      expected = "solver '" + name + "': expected at most " +
                 (declared == 1 ? "one argument" : "two arguments");
    }
    EXPECT_EQ(thrown_message([&] { (void)solve(request, name); }), expected)
        << listing.name;
  }
}

TEST(Solve, OverArityNameNeverReachesTheFactory) {
  const SolveRequest request =
      request_for(testing::table3_instance(), testing::kTable3Capacity);
  const int before = g_counted_factory_calls.load();
  EXPECT_THROW((void)solve(request, "test-counted:1:2"),
               std::invalid_argument);
  EXPECT_EQ(g_counted_factory_calls.load(), before);
  (void)solve(request, "test-counted:1");
  EXPECT_EQ(g_counted_factory_calls.load(), before + 1);
}

/// The batch trait, read from the listings: a solver that declares it
/// solves under a batch window, every other one is rejected by solve().
TEST(Solve, BatchWindowRejectedByNonBatchSolvers) {
  SolveRequest request = request_for(testing::table3_instance(),
                                     testing::kTable3Capacity);
  request.batch_size = 2;
  std::size_t rejected = 0;
  for (const SolverListing& listing : list_solvers()) {
    if (listing.traits.batch) {
      SolveResult res;
      ASSERT_NO_THROW(res = solve(request, listing.name)) << listing.name;
      EXPECT_TRUE(testing::feasible(request.instance, res.schedule,
                                    request.capacity))
          << listing.name;
      continue;
    }
    ++rejected;
    EXPECT_EQ(thrown_message([&] { (void)solve(request, listing.name); }),
              "solver '" + listing.name + "' does not support a batch window");
  }
  // local-search, duplex-balance, branch-bound, milp, exhaustive, window.
  EXPECT_GE(rejected, 6u);
}

TEST(Solve, EmptyInstanceSolvesToZero) {
  const SolveResult res = solve(request_for(Instance{}, 1.0), "auto");
  EXPECT_DOUBLE_EQ(res.makespan, 0.0);
  EXPECT_DOUBLE_EQ(res.ratio_to_optimal(), 1.0);
}

TEST(Solve, FillsBoundsRatioAndWallTime) {
  const Instance inst = testing::table3_instance();
  const SolveResult res =
      solve(request_for(inst, testing::kTable3Capacity), "OOSIM");
  EXPECT_DOUBLE_EQ(res.bounds.omim, omim(inst));
  EXPECT_GE(res.ratio_to_optimal(), 1.0);
  EXPECT_GE(res.wall_seconds, 0.0);
  EXPECT_EQ(res.winner, "OOSIM");

  SolveOptions options;
  options.compute_bounds = false;
  const SolveResult bare =
      solve(request_for(inst, testing::kTable3Capacity), "OOSIM", options);
  EXPECT_DOUBLE_EQ(bare.bounds.omim, 0.0);  // left untouched
}

}  // namespace
}  // namespace dts
