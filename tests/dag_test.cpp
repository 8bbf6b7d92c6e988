/// Precedence (task-DAG) coverage: edge-set validation with exact
/// diagnostics, trace format v4 round-trips, dependency-aware trace
/// transforms, edge-free bit-parity goldens across every builtin solver,
/// and a differential corpus of random DAGs where each solver's declared
/// `dag` trait drives the expectation — a solver declaring it must produce
/// a validate_schedule()-clean schedule at or above the critical-path
/// bound, any other must reject with a clear error.

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/bounds.hpp"
#include "core/solver.hpp"
#include "core/validate.hpp"
#include "milp/milp_solver.hpp"
#include "model/machine.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"
#include "trace/generators.hpp"
#include "trace/trace_io.hpp"
#include "trace/transforms.hpp"

namespace dts {
namespace {

Task simple_task(Time comm, Time comp, Mem mem,
                 std::vector<TaskId> deps = {}) {
  Task t;
  t.comm = comm;
  t.comp = comp;
  t.mem = mem;
  t.deps = std::move(deps);
  return t;
}

/// Random instance whose edges always point backwards (dep < id), so the
/// edge set is acyclic by construction; ~30% of tasks carry 1-2 edges.
Instance random_dag_instance(Rng& rng, std::size_t n, std::size_t channels) {
  std::vector<Task> tasks;
  tasks.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Task t;
    t.comm = rng.uniform(0.0, 10.0);
    t.comp = rng.uniform(0.0, 10.0);
    if (rng.chance(0.08)) t.comm = 0.0;
    if (rng.chance(0.08)) t.comp = 0.0;
    t.mem = rng.uniform(0.1, 10.0);
    t.channel = static_cast<ChannelId>(rng.index(channels));
    if (i > 0 && rng.chance(0.3)) {
      t.deps.push_back(static_cast<TaskId>(rng.index(i)));
      const TaskId second = static_cast<TaskId>(rng.index(i));
      if (rng.chance(0.3) && second != t.deps.front()) {
        t.deps.push_back(second);
      }
    }
    tasks.push_back(std::move(t));
  }
  return Instance(std::move(tasks));
}

// ------------------------------------------------------------ validation

TEST(DagValidation, DanglingDependencyIsRejectedWithExactMessage) {
  std::vector<Task> tasks;
  tasks.push_back(simple_task(1.0, 1.0, 1.0));
  tasks.push_back(simple_task(1.0, 1.0, 1.0, {5}));
  try {
    const Instance inst(std::move(tasks));
    FAIL() << "dangling edge accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "Instance: task 1 depends on unknown task 5 (instance has "
                 "2 tasks)");
  }
}

TEST(DagValidation, SelfEdgeIsRejectedWithExactMessage) {
  std::vector<Task> tasks;
  tasks.push_back(simple_task(1.0, 1.0, 1.0, {0}));
  try {
    const Instance inst(std::move(tasks));
    FAIL() << "self-edge accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "Instance: task 0 depends on itself");
  }
}

TEST(DagValidation, CycleIsRejectedWithExactMessage) {
  std::vector<Task> tasks;
  tasks.push_back(simple_task(1.0, 1.0, 1.0, {2}));
  tasks.push_back(simple_task(1.0, 1.0, 1.0));  // not on the cycle
  tasks.push_back(simple_task(1.0, 1.0, 1.0, {3}));
  tasks.push_back(simple_task(1.0, 1.0, 1.0, {0}));
  try {
    const Instance inst(std::move(tasks));
    FAIL() << "cyclic edge set accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "Instance: dependency cycle among tasks {0, 2, 3}");
  }
}

TEST(DagValidation, ValidateSchedulePinpointsDependencyViolation) {
  // Task 1 depends on task 0 (comp ends at 2.0) but transfers at 0.5.
  std::vector<Task> tasks;
  tasks.push_back(simple_task(1.0, 1.0, 1.0));
  tasks.push_back(simple_task(1.0, 1.0, 1.0, {0}));
  const Instance inst(std::move(tasks));
  Schedule sched(2);
  sched.set(0, 0.0, 1.0);
  sched.set(1, 0.5, 2.0);
  const ValidationReport report = validate_schedule(inst, sched, 10.0);
  ASSERT_FALSE(report.ok());
  bool found = false;
  for (const Violation& v : report.violations) {
    found = found || v.kind == Violation::Kind::kDependencyViolated;
  }
  EXPECT_TRUE(found) << report.summary();
}

// --------------------------------------------------------- trace format

TEST(DagTrace, V4RoundTripPreservesEdges) {
  std::vector<Task> tasks;
  tasks.push_back(simple_task(1.5, 2.0, 64.0));
  tasks.push_back(simple_task(0.5, 1.0, 32.0, {0}));
  tasks.push_back(simple_task(2.5, 0.0, 16.0, {0, 1}));
  tasks[2].channel = 1;
  const Instance inst(std::move(tasks));

  std::ostringstream out;
  write_trace(out, inst);
  EXPECT_EQ(out.str().substr(0, 14), "# dts-trace v4");
  EXPECT_NE(out.str().find(" deps=0,1\n"), std::string::npos) << out.str();

  std::istringstream in(out.str());
  const Instance back = read_trace(in);
  ASSERT_EQ(back.size(), 3u);
  EXPECT_TRUE(back.has_dependencies());
  EXPECT_TRUE(back[0].deps.empty());
  EXPECT_EQ(back[1].deps, std::vector<TaskId>{0});
  EXPECT_EQ(back[2].deps, (std::vector<TaskId>{0, 1}));
}

TEST(DagTrace, EdgeFreeInstancesStayOnLegacyVersions) {
  // The v4 column is opt-in: without edges the writer emits the exact
  // legacy bytes, so old readers keep working on new traces.
  const Instance single = Instance::from_triples({{1.0, 2.0, 4.0}});
  std::ostringstream out;
  write_trace(out, single);
  EXPECT_EQ(out.str().substr(0, 14), "# dts-trace v1");
  EXPECT_EQ(out.str().find("deps="), std::string::npos);
}

TEST(DagTrace, DepsColumnNeedsTheV4Header) {
  std::istringstream in(
      "# dts-trace v3\n"
      "task a 1 1 1\n"
      "task b 1 1 1 deps=0\n");
  try {
    (void)read_trace(in);
    FAIL() << "v3 trace with deps= accepted";
  } catch (const TraceIoError& e) {
    EXPECT_EQ(e.line(), 3u);
    EXPECT_NE(std::string(e.what()).find("dependency edges need the "
                                         "'# dts-trace v4' header"),
              std::string::npos)
        << e.what();
  }
}

TEST(DagTrace, MalformedDepsListsAreLoudErrors) {
  for (const char* bad : {"deps=", "deps=1,", "deps=,1", "deps=x",
                          "deps=1,,2", "deps=-1"}) {
    std::istringstream in(std::string("# dts-trace v4\n") +
                          "task a 1 1 1\n"
                          "task b 1 1 1 " + bad + "\n");
    EXPECT_THROW((void)read_trace(in), TraceIoError) << bad;
  }
  // Duplicate deps= and content after deps= are rejected too.
  {
    std::istringstream in(
        "# dts-trace v4\ntask a 1 1 1\ntask b 1 1 1 deps=0 deps=0\n");
    EXPECT_THROW((void)read_trace(in), TraceIoError);
  }
  {
    std::istringstream in(
        "# dts-trace v4\ntask a 1 1 1\ntask b 1 1 1 deps=0 7\n");
    EXPECT_THROW((void)read_trace(in), TraceIoError);
  }
}

TEST(DagTrace, DanglingIdsAreCaughtAtInstanceConstruction) {
  // The reader only checks the lexical shape; Instance construction owns
  // the semantic diagnostics, so the error message is its exact one.
  std::istringstream in("# dts-trace v4\ntask a 1 1 1 deps=9\n");
  try {
    (void)read_trace(in);
    FAIL() << "dangling edge accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "Instance: task 0 depends on unknown task 9 (instance has "
                 "1 tasks)");
  }
}

// ----------------------------------------------------------- transforms

TEST(DagTransforms, MergeOffsetsEdgesPerTrace) {
  std::vector<Task> a_tasks, b_tasks;
  a_tasks.push_back(simple_task(1.0, 1.0, 1.0));
  a_tasks.push_back(simple_task(1.0, 1.0, 1.0, {0}));
  b_tasks.push_back(simple_task(2.0, 2.0, 2.0));
  b_tasks.push_back(simple_task(2.0, 2.0, 2.0, {0}));
  const std::vector<Instance> traces{Instance(std::move(a_tasks)),
                                     Instance(std::move(b_tasks))};
  const Instance merged = merge_traces(traces);
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_EQ(merged[1].deps, std::vector<TaskId>{0});
  EXPECT_EQ(merged[3].deps, std::vector<TaskId>{2});  // shifted, not 0
}

TEST(DagTransforms, FilterSeversEdgesOntoDroppedTasks) {
  std::vector<Task> tasks;
  tasks.push_back(simple_task(1.0, 1.0, 1.0));
  tasks.push_back(simple_task(9.0, 1.0, 1.0, {0}));  // dropped
  tasks.push_back(simple_task(1.0, 1.0, 1.0, {1, 0}));
  const Instance inst(std::move(tasks));
  const Instance kept =
      filter_tasks(inst, [](const Task& t) { return t.comm < 5.0; });
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_TRUE(kept[0].deps.empty());
  // The edge onto dropped task 1 is severed; the edge onto kept task 0
  // survives, remapped to the new id space.
  EXPECT_EQ(kept[1].deps, std::vector<TaskId>{0});
}

TEST(DagTransforms, SplitDropsCrossBatchEdges) {
  std::vector<Task> tasks;
  tasks.push_back(simple_task(1.0, 1.0, 1.0));
  tasks.push_back(simple_task(1.0, 1.0, 1.0, {0}));
  tasks.push_back(simple_task(1.0, 1.0, 1.0, {1}));  // crosses the cut
  tasks.push_back(simple_task(1.0, 1.0, 1.0, {2}));
  const Instance inst(std::move(tasks));
  const std::vector<Instance> batches = split_batches(inst, 2);
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[0][1].deps, std::vector<TaskId>{0});
  EXPECT_TRUE(batches[1][0].deps.empty());  // cross-batch edge dropped
  EXPECT_EQ(batches[1][1].deps, std::vector<TaskId>{0});  // remapped local
}

TEST(DagTransforms, WritebackRemapsAndOptionallyDependsOnProducer) {
  std::vector<Task> tasks;
  tasks.push_back(simple_task(1.0, 1.0, 8.0));
  tasks.push_back(simple_task(1.0, 1.0, 8.0, {0}));
  const Instance inst(std::move(tasks));
  const Machine duplex("duplex",
                       {affine_channel("H2D", 0.0, 8.0),
                        affine_channel("D2H", 0.0, 8.0)});

  // Default: write-backs stay independent (the historical duplex traces)
  // but the original edges survive the interleaving shift.
  const Instance loose = with_writeback(inst, duplex, 0.5);
  ASSERT_EQ(loose.size(), 4u);
  EXPECT_EQ(loose[2].deps, std::vector<TaskId>{0});  // was {0}, 0 stays 0
  EXPECT_TRUE(loose[1].deps.empty());
  EXPECT_TRUE(loose[3].deps.empty());

  // depend_on_producer: each write-back waits for its producing task.
  const Instance tied = with_writeback(inst, duplex, 0.5, true);
  ASSERT_EQ(tied.size(), 4u);
  EXPECT_EQ(tied[1].deps, std::vector<TaskId>{0});  // wb of task 0
  EXPECT_EQ(tied[2].deps, std::vector<TaskId>{0});  // original edge
  EXPECT_EQ(tied[3].deps, std::vector<TaskId>{2});  // wb of (shifted) task 1

  // A single-link machine has no engine to write back on.
  EXPECT_THROW((void)with_writeback(inst, machine_from_name("paper"), 0.5),
               std::invalid_argument);
}

TEST(DagTransforms, CcsdDagGeneratorBuildsChains) {
  TraceConfig config;
  config.seed = 11;
  config.min_tasks = 40;
  config.max_tasks = 60;
  config.machine = machine_from_name("duplex-pcie");
  const Instance inst = generate_ccsd_dag_trace(config);
  EXPECT_TRUE(inst.has_dependencies());
  EXPECT_GE(inst.size(), 40u);
  std::size_t writebacks = 0;
  for (const Task& t : inst) {
    if (t.comp == 0.0 && t.channel == kChannelD2H) {
      ++writebacks;
      ASSERT_EQ(t.deps.size(), 1u);  // terminal edge on the last contraction
    }
    EXPECT_TRUE(t.has_comm_bytes());
    for (const TaskId dep : t.deps) EXPECT_LT(dep, t.id);
  }
  EXPECT_GT(writebacks, 0u);
  // Deterministic in the seed.
  const Instance again = generate_ccsd_dag_trace(config);
  ASSERT_EQ(again.size(), inst.size());
  for (std::size_t i = 0; i < inst.size(); ++i) {
    EXPECT_EQ(inst[i].comm, again[i].comm);
    EXPECT_EQ(inst[i].deps, again[i].deps);
  }
}

// --------------------------------------------- edge-free parity goldens

/// Every builtin heuristic's makespan on a fixed duplex CCSD trace,
/// pinned to the exact double. The DAG-aware engine paths must remain
/// bit-identical on edge-free instances — any drift here is a behavior
/// change in the paper's model, not a tuning detail.
TEST(DagEdgeFreeParity, HeuristicGoldensOnDuplexCcsdTrace) {
  TraceConfig config;
  config.seed = 42;
  config.min_tasks = 24;
  config.max_tasks = 24;
  config.machine = machine_from_name("duplex-pcie");
  const Instance inst =
      generate_trace(ChemistryKernel::kCoupledClusterSD, config);
  ASSERT_FALSE(inst.has_dependencies());

  SolveRequest request;
  request.instance = inst;
  request.capacity = 1.5 * inst.min_capacity();
  SolveOptions options;
  options.max_iterations = 50;
  options.parallel_candidates = false;
  options.compute_bounds = false;

  const std::vector<std::pair<std::string, double>> goldens = {
      {"OS", 1.0575203717221642},
      {"OOSIM", 1.3287487287741986},
      {"IOCMS", 1.1360088058814108},
      {"DOCPS", 1.2004371528069455},
      {"IOCCS", 1.2020158768765918},
      {"DOCCS", 1.147635945690586},
      {"GG", 1.1303209260851632},
      {"BP", 1.0463199388220827},
      {"LCMR", 1.0614428754404432},
      {"SCMR", 1.0946219684896417},
      {"MAMR", 1.1156968516321506},
      {"OOLCMR", 1.0640878685096584},
      {"OOSCMR", 1.0886985584926101},
      {"OOMAMR", 1.1076047476532445},
      {"auto", 1.0463199388220827},
      {"auto-batch", 1.0122776577984876},
      {"local-search", 0.97683606250686583},
      {"duplex-balance", 1.1027104448374212},
      {"window", 1.0009995187728733},
  };
  std::map<std::string, double> expected(goldens.begin(), goldens.end());
  std::size_t covered = 0;
  for (const SolverListing& listing : list_solvers()) {
    if (listing.name == "exhaustive" || listing.name == "branch-bound" ||
        listing.name == "milp") {
      continue;  // exact solvers: tiny golden below
    }
    if (listing.name.rfind("test-", 0) == 0) continue;  // test-only solvers
    const auto it = expected.find(listing.name);
    ASSERT_NE(it, expected.end())
        << listing.name << " is registered but has no golden row — add one";
    ++covered;
    const SolveResult res = solve(request, listing.name, options);
    EXPECT_EQ(res.makespan, it->second) << listing.name;
  }
  // Every golden row must still name a registered solver.
  EXPECT_EQ(covered, goldens.size());
}

TEST(DagEdgeFreeParity, ExactSolverGoldensOnTinyDuplexInstance) {
  Rng rng(20260809);
  std::vector<Task> tasks;
  for (int i = 0; i < 6; ++i) {
    Task t;
    t.comm = rng.uniform(0.0, 10.0);
    t.comp = rng.uniform(0.0, 10.0);
    t.mem = rng.uniform(0.1, 10.0);
    t.channel = static_cast<ChannelId>(i % 2);
    tasks.push_back(std::move(t));
  }
  const Instance inst(std::move(tasks));
  SolveRequest request;
  request.instance = inst;
  request.capacity = 1.5 * inst.min_capacity();
  SolveOptions options;
  options.max_iterations = 20000;
  options.parallel_candidates = false;
  options.compute_bounds = false;
  const std::vector<std::pair<std::string, double>> goldens = {
      {"exhaustive", 41.905647569726021},
      {"branch-bound", 41.905647569726021},
      {"milp", 43.638520111556502},
      {"window:3:pair", 46.762271245538784},
  };
  for (const auto& [name, makespan] : goldens) {
    const SolveResult res = solve(request, name, options);
    EXPECT_EQ(res.makespan, makespan) << name;
  }
}

// ------------------------------------------------ differential (random)

/// Per-solver expectations on DAG instances are derived from the
/// registry's declared `dag` trait — never a hand-kept list: a solver
/// declaring it must schedule the edges correctly, any other must reject.
TEST(DagDifferential, EverySolverHonorsItsDeclaredCapability) {
  struct Plan {
    std::string name;
    bool exact = false;
    std::size_t max_n = 40;
    bool independent_only = false;
    std::size_t max_iterations = 200;
  };
  std::vector<Plan> plans;
  for (const SolverListing& listing : list_solvers()) {
    Plan plan;
    plan.name = listing.name;
    plan.independent_only = !listing.traits.dag;
    if (listing.name == "exhaustive") {
      plan.exact = true;
      plan.max_n = 7;
    } else if (listing.name == "branch-bound") {
      plan.exact = true;
      plan.max_n = 5;
    } else if (listing.name == "milp") {
      plan.max_n = 4;  // rejection is cheap, but keep the corpus uniform
    }
    plans.push_back(std::move(plan));
  }
  // The registry must still contain declared-independent solvers (milp),
  // or the rejection path below would silently stop being exercised.
  std::size_t independent = 0;
  for (const Plan& plan : plans) independent += plan.independent_only;
  ASSERT_GE(independent, 1u);

  Rng rng(20260808);
  SolveOptions options;
  options.parallel_candidates = false;
  options.compute_bounds = false;

  for (int round = 0; round < 60; ++round) {
    const std::size_t channels = 1 + rng.index(3);
    const std::size_t n = 2 + rng.index(39);
    const Instance inst = random_dag_instance(rng, n, channels);
    if (!inst.has_dependencies()) continue;
    const Mem capacity = testing::random_capacity(rng, inst);
    const Bounds bounds = compute_bounds(inst);
    const Time cp = critical_path_bound(inst);
    EXPECT_EQ(bounds.critical_path, cp);
    const SolveRequest request{.instance = inst, .capacity = capacity};
    SCOPED_TRACE("round " + std::to_string(round) + ": n=" +
                 std::to_string(n) + " channels=" + std::to_string(channels));

    std::map<std::string, Time> makespans;
    for (const Plan& plan : plans) {
      if (n > plan.max_n) continue;
      if (plan.independent_only) {
        // The declared capability is the contract: a clean rejection,
        // never a schedule that silently ignores the edges.
        EXPECT_THROW((void)solve(request, plan.name, options),
                     std::invalid_argument)
            << plan.name;
        continue;
      }
      SolveResult res;
      options.max_iterations = plan.max_iterations;
      ASSERT_NO_THROW(res = solve(request, plan.name, options)) << plan.name;
      EXPECT_TRUE(res.schedule.complete()) << plan.name;
      // validate_schedule re-simulates the edge rule: every transfer at
      // or after its predecessors' computation ends.
      EXPECT_TRUE(testing::feasible(inst, res.schedule, capacity))
          << plan.name;
      EXPECT_TRUE(approx_leq(cp, res.makespan))
          << plan.name << ": makespan " << res.makespan
          << " beats the critical-path bound " << cp;
      EXPECT_TRUE(approx_leq(bounds.omim_lower, res.makespan)) << plan.name;
      makespans[plan.name] = res.makespan;
    }

    // Exact dominance carries over to DAGs: the searches enumerate
    // topological orders only, and every heuristic schedule is one.
    for (const Plan& exact : plans) {
      if (!exact.exact || !makespans.count(exact.name)) continue;
      for (const auto& [name, ms] : makespans) {
        EXPECT_TRUE(approx_leq(makespans[exact.name], ms))
            << exact.name << " (" << makespans[exact.name]
            << ") beaten by " << name << " (" << ms << ")";
      }
    }
  }
}

TEST(DagDifferential, SolveGateRejectsMilpWithExactMessage) {
  std::vector<Task> tasks;
  tasks.push_back(simple_task(1.0, 1.0, 1.0));
  tasks.push_back(simple_task(1.0, 1.0, 1.0, {0}));
  const Instance inst(std::move(tasks));
  const SolveRequest request{.instance = inst, .capacity = 4.0};
  try {
    (void)solve(request, "milp");
    FAIL() << "milp accepted a DAG instance";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "solve: solver 'milp' schedules independent task sets only "
                 "(deps=independent), but the instance declares dependency "
                 "edges");
  }
  // The direct entry point guards itself too (its LP carries no
  // precedence rows, so its bounds would be invalid on a DAG).
  EXPECT_THROW((void)solve_order_milp(inst, 4.0, {}), std::invalid_argument);
}

}  // namespace
}  // namespace dts
