/// Property tests for the canonical-instance fingerprint
/// (service/fingerprint.hpp): permutation, relabeling and trace
/// round-trips (v1/v2/v3) must preserve it; any value-level perturbation
/// (durations, memory, channel, byte annotation) and adding or removing
/// any dependency edge must change it; edge-free fingerprints are pinned;
/// and a cached order re-costed per machine must reproduce a fresh solve
/// on the bound instance bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <sstream>
#include <vector>

#include "core/simulate.hpp"
#include "core/solver.hpp"
#include "model/machine.hpp"
#include "service/fingerprint.hpp"
#include "service/service.hpp"
#include "support/rng.hpp"
#include "trace/generators.hpp"
#include "test_util.hpp"
#include "trace/trace_io.hpp"

namespace dts {
namespace {

/// Random instance exercising every fingerprint-relevant field: multiple
/// channels and (optionally) byte annotations.
Instance random_annotated_instance(Rng& rng, std::size_t n,
                                   std::size_t channels, bool bytes) {
  std::vector<Task> tasks;
  tasks.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Task t;
    t.comm = rng.uniform(0.001, 10.0);
    t.comp = rng.uniform(0.001, 10.0);
    t.mem = rng.uniform(0.1, 10.0);
    t.channel = static_cast<ChannelId>(rng.index(channels));
    if (bytes) t.comm_bytes = rng.uniform(1.0, 1e9);
    t.name = "t" + std::to_string(i);
    tasks.push_back(t);
  }
  return Instance(std::move(tasks));
}

Instance shuffled(const Instance& inst, Rng& rng) {
  std::vector<TaskId> perm(inst.size());
  std::iota(perm.begin(), perm.end(), TaskId{0});
  for (std::size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.index(i)]);
  }
  std::vector<Task> tasks;
  tasks.reserve(perm.size());
  for (TaskId id : perm) tasks.push_back(inst[id]);
  return Instance(std::move(tasks));
}

TEST(Fingerprint, PermutationInvariant) {
  Rng rng(1001);
  for (int round = 0; round < 50; ++round) {
    const Instance inst =
        random_annotated_instance(rng, 2 + rng.index(30), 1 + rng.index(3),
                                  round % 2 == 0);
    const Instance perm = shuffled(inst, rng);
    EXPECT_EQ(fingerprint_of(inst), fingerprint_of(perm)) << "round " << round;
  }
}

TEST(Fingerprint, RelabelingInvariant) {
  Rng rng(1002);
  const Instance inst = random_annotated_instance(rng, 20, 2, true);
  std::vector<Task> renamed(inst.tasks());
  for (std::size_t i = 0; i < renamed.size(); ++i) {
    renamed[i].name = "renamed-" + std::to_string(997 * i);
  }
  EXPECT_EQ(fingerprint_of(inst), fingerprint_of(Instance(std::move(renamed))));
}

TEST(Fingerprint, TraceRoundTripInvariantAcrossVersions) {
  Rng rng(1003);
  // v1: single channel, no bytes. v2: multi-channel, no bytes. v3: byte
  // annotations (the writer emits the lowest sufficient version).
  const Instance v1 = random_annotated_instance(rng, 25, 1, false);
  const Instance v2 = random_annotated_instance(rng, 25, 3, false);
  const Instance v3 = random_annotated_instance(rng, 25, 2, true);
  for (const Instance* inst : {&v1, &v2, &v3}) {
    std::stringstream buffer;
    write_trace(buffer, *inst);
    const Instance back = read_trace(buffer);
    EXPECT_EQ(fingerprint_of(*inst), fingerprint_of(back));
  }
}

TEST(Fingerprint, TimelessTraceFingerprintsMachineIndependently) {
  // A bytes-only workload has one fingerprint no matter which machine it
  // will be bound to — binding is a cache-key concern, not an identity
  // concern.
  std::vector<Task> tasks;
  for (int i = 0; i < 8; ++i) {
    Task t;
    t.comm = kUnboundTime;
    t.comm_bytes = 1e6 * (i + 1);
    t.comp = 0.25 * (i + 1);
    t.mem = 1e6 * (i + 1);
    tasks.push_back(t);
  }
  const Instance unbound{std::move(tasks)};
  const Fingerprint fp = fingerprint_of(unbound);
  std::stringstream buffer;
  write_trace(buffer, unbound);
  EXPECT_EQ(fp, fingerprint_of(read_trace(buffer)));
  // Binding produces a different instance (costed comm), so its
  // fingerprint legitimately differs from the unbound one.
  EXPECT_FALSE(fp ==
               fingerprint_of(bind(unbound, machine_from_name("paper"))));
}

TEST(Fingerprint, DistinctInstancesNeverCollideAcrossCorpus) {
  Rng rng(1004);
  std::map<std::string, int> seen;  // hex fingerprint -> corpus index
  int corpus = 0;
  auto check = [&](const Instance& inst) {
    const std::string hex = fingerprint_of(inst).to_hex();
    const auto [it, inserted] = seen.emplace(hex, corpus);
    EXPECT_TRUE(inserted) << "fingerprint collision between corpus entries "
                          << it->second << " and " << corpus << ": " << hex;
    ++corpus;
  };

  for (int round = 0; round < 150; ++round) {
    const Instance inst = random_annotated_instance(
        rng, 1 + rng.index(40), 1 + rng.index(4), round % 3 != 0);
    check(inst);

    // Single-field perturbations of the instance just added: each must
    // move the fingerprint (they are value-distinct workloads).
    std::vector<Task> tasks(inst.tasks());
    const std::size_t victim = rng.index(tasks.size());
    switch (round % 5) {
      case 0: tasks[victim].comm += 1e-9; break;
      case 1: tasks[victim].comp += 1e-9; break;
      case 2: tasks[victim].mem += 1e-9; break;
      case 3:
        tasks[victim].comm_bytes =
            tasks[victim].has_comm_bytes() ? tasks[victim].comm_bytes + 1.0
                                           : 512.0;
        break;
      default:
        tasks[victim].channel = static_cast<ChannelId>(
            (tasks[victim].channel + 1) % kMaxChannels);
        break;
    }
    check(Instance(std::move(tasks)));
  }
}

TEST(Fingerprint, ZeroSignsAndTaskCountFoldCleanly) {
  // -0.0 and +0.0 durations are the same workload.
  Instance pos({Task{.comm = 0.0, .comp = 1.0, .mem = 0.0}});
  Instance neg({Task{.comm = -0.0, .comp = 1.0, .mem = -0.0}});
  EXPECT_EQ(fingerprint_of(pos), fingerprint_of(neg));
  // An empty instance and a one-zero-task instance are different.
  EXPECT_FALSE(fingerprint_of(Instance{}) ==
               fingerprint_of(Instance({Task{}})));
}

TEST(Fingerprint, PinnedHexOfFixedInstancesNeverMoves) {
  // Edge-free fingerprints are a stable identity: refactors of the
  // canonicalization must reproduce these digests bit for bit.
  TraceConfig config;
  config.seed = 11;
  const Instance hf = generate_hf_trace(config);
  const Instance ccsd = generate_ccsd_trace(config);
  ASSERT_FALSE(hf.has_dependencies());
  ASSERT_FALSE(ccsd.has_dependencies());
  EXPECT_EQ(fingerprint_of(hf).to_hex(), "0bdb47d5decf9c218aba3906f2506da9");
  EXPECT_EQ(fingerprint_of(ccsd).to_hex(), "45d2a515ffa4f50f689284a5d633a221");
  EXPECT_EQ(CanonicalInstance(hf).fingerprint(), fingerprint_of(hf));
  EXPECT_EQ(CanonicalInstance(ccsd).fingerprint(), fingerprint_of(ccsd));
}

TEST(CanonicalInstance, OrderTranslationRoundTrips) {
  Rng rng(1005);
  for (int round = 0; round < 30; ++round) {
    const Instance inst = random_annotated_instance(rng, 2 + rng.index(20), 2,
                                                    true);
    const CanonicalInstance canon(inst);
    std::vector<TaskId> order(inst.size());
    std::iota(order.begin(), order.end(), TaskId{0});
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.index(i)]);
    }
    EXPECT_EQ(canon.to_request_order(canon.to_canonical_order(order)), order);
    for (TaskId slot = 0; slot < inst.size(); ++slot) {
      EXPECT_EQ(canon.canonical_slot(canon.request_id(slot)), slot);
    }
  }
  const CanonicalInstance canon(random_annotated_instance(rng, 5, 1, false));
  EXPECT_THROW((void)canon.to_request_order({0, 1, 2}), std::invalid_argument);
  EXPECT_THROW((void)canon.to_request_order({0, 1, 2, 3, 3}),
               std::invalid_argument);
  EXPECT_THROW((void)canon.to_canonical_order({0, 1, 2, 3, 9}),
               std::invalid_argument);
}

TEST(CanonicalInstance, SlotValuesAgreeAcrossPermutations) {
  // Canonical slot k carries the same task values in every permutation of
  // one workload — the property that makes cached orders portable.
  Rng rng(1006);
  const Instance inst = random_annotated_instance(rng, 24, 3, true);
  const Instance perm = shuffled(inst, rng);
  const CanonicalInstance ca(inst);
  const CanonicalInstance cb(perm);
  ASSERT_EQ(ca.size(), cb.size());
  for (TaskId slot = 0; slot < ca.size(); ++slot) {
    const Task& a = inst[ca.request_id(slot)];
    const Task& b = perm[cb.request_id(slot)];
    EXPECT_EQ(a.comm, b.comm);
    EXPECT_EQ(a.comp, b.comp);
    EXPECT_EQ(a.mem, b.mem);
    EXPECT_EQ(a.channel, b.channel);
    EXPECT_EQ(a.comm_bytes, b.comm_bytes);
  }
}

/// The end-to-end portability property: a bytes-only workload served per
/// machine from the cache equals a fresh dts::solve() on the bound
/// instance bit for bit — winner, makespan, order and every start time.
TEST(Fingerprint, CachedOrderRecostedPerMachineEqualsFreshSolve) {
  std::vector<Task> tasks;
  Rng rng(1007);
  for (int i = 0; i < 14; ++i) {
    Task t;
    t.comm = kUnboundTime;
    t.comm_bytes = rng.uniform(1e5, 5e8);
    t.comp = rng.uniform(0.0005, 0.05);
    t.mem = t.comm_bytes;
    tasks.push_back(t);
  }
  const Instance workload{std::move(tasks)};

  SolverService service(ServiceOptions{.workers = 2, .default_solver = "auto"});
  for (const char* machine : {"paper", "cascade", "nvlink"}) {
    const Instance bound = bind(workload, machine_from_name(machine));
    const Mem capacity = 1.5 * bound.min_capacity();
    SolveOptions options;
    options.compute_bounds = false;
    const SolveResult fresh =
        solve(SolveRequest{.instance = bound, .capacity = capacity}, "auto",
              options);

    ServiceRequest request;
    request.instance = workload;
    request.capacity = capacity;
    request.machine = machine;
    for (int pass = 0; pass < 2; ++pass) {
      const ServiceResponse response = service.handle(request);
      ASSERT_EQ(response.status, WireResponse::Status::kOk) << response.error;
      EXPECT_EQ(response.cache, pass == 0
                                    ? WireResponse::CacheOutcome::kMiss
                                    : WireResponse::CacheOutcome::kHit);
      EXPECT_EQ(response.winner, fresh.winner);
      EXPECT_EQ(response.makespan, fresh.makespan);  // exact, not approx
      EXPECT_EQ(response.order, fresh.schedule.comm_order());
      ASSERT_EQ(response.schedule.size(), fresh.schedule.size());
      for (TaskId id = 0; id < fresh.schedule.size(); ++id) {
        EXPECT_EQ(response.schedule[id].comm_start,
                  fresh.schedule[id].comm_start);
        EXPECT_EQ(response.schedule[id].comp_start,
                  fresh.schedule[id].comp_start);
      }
    }
  }
  // One workload, three machines: three distinct cache entries.
  EXPECT_EQ(service.counters().cache.inserts, 3u);
  EXPECT_EQ(service.counters().cache.hits, 3u);
}

/// A permuted submission of a cached workload hits the same entry, and
/// the re-costed schedule is exactly the simulation of the translated
/// order on the permuted bound instance (and therefore feasible).
TEST(Fingerprint, PermutedSubmissionHitsAndRecostsConsistently) {
  Rng rng(1008);
  std::vector<Task> tasks;
  for (int i = 0; i < 12; ++i) {
    Task t;
    t.comm = kUnboundTime;
    t.comm_bytes = rng.uniform(1e5, 5e8);
    t.comp = rng.uniform(0.0005, 0.05);
    t.mem = t.comm_bytes;
    tasks.push_back(t);
  }
  const Instance workload{std::move(tasks)};
  const Instance permuted = shuffled(workload, rng);

  SolverService service(ServiceOptions{.workers = 2});
  ServiceRequest request;
  request.instance = workload;
  request.capacity_factor = 1.4;
  request.machine = "nvlink";
  const ServiceResponse cold = service.handle(request);
  ASSERT_EQ(cold.status, WireResponse::Status::kOk) << cold.error;
  ASSERT_EQ(cold.cache, WireResponse::CacheOutcome::kMiss);

  request.instance = permuted;
  const ServiceResponse warm = service.handle(request);
  ASSERT_EQ(warm.status, WireResponse::Status::kOk) << warm.error;
  EXPECT_EQ(warm.cache, WireResponse::CacheOutcome::kHit);
  EXPECT_EQ(warm.makespan, cold.makespan);
  EXPECT_EQ(warm.winner, cold.winner);

  const Instance bound = bind(permuted, machine_from_name("nvlink"));
  const Mem capacity = 1.4 * bound.min_capacity();
  const Schedule replay = simulate_order(bound, warm.order, capacity);
  ASSERT_EQ(replay.size(), warm.schedule.size());
  for (TaskId id = 0; id < replay.size(); ++id) {
    EXPECT_EQ(replay[id].comm_start, warm.schedule[id].comm_start);
    EXPECT_EQ(replay[id].comp_start, warm.schedule[id].comp_start);
  }
  EXPECT_TRUE(testing::feasible(bound, replay, capacity));
}

/// Copy of `inst` with the single edge `from -> to` toggled (added when
/// absent, removed when present).
Instance toggle_edge(const Instance& inst, TaskId from, TaskId to) {
  std::vector<Task> tasks(inst.tasks());
  std::vector<TaskId>& deps = tasks[to].deps;
  const auto it = std::find(deps.begin(), deps.end(), from);
  if (it == deps.end()) {
    deps.push_back(from);
  } else {
    deps.erase(it);
  }
  return Instance(std::move(tasks));
}

TEST(Fingerprint, AddingOrRemovingAnyEdgeChangesIt) {
  TraceConfig config;
  config.seed = 5;
  config.min_tasks = 16;
  config.max_tasks = 16;
  const Instance dag = generate_ccsd_dag_trace(config);
  ASSERT_TRUE(dag.has_dependencies());
  // Every forward pair (from < to keeps the graph acyclic), toggled on
  // the DAG itself and on its edge-free twin.
  for (const Instance& base : {dag, dag.without_dependencies()}) {
    const Fingerprint fp = fingerprint_of(base);
    std::size_t toggled = 0;
    for (TaskId to = 0; to < base.size(); ++to) {
      for (TaskId from = 0; from < to; ++from) {
        EXPECT_NE(fingerprint_of(toggle_edge(base, from, to)), fp)
            << from << " -> " << to;
        ++toggled;
      }
    }
    EXPECT_EQ(toggled, base.size() * (base.size() - 1) / 2);
  }
  EXPECT_NE(fingerprint_of(dag), fingerprint_of(dag.without_dependencies()));
}

TEST(Fingerprint, RelabeledDagKeepsItsFingerprint) {
  // Distinct task values, so the canonical slots do not depend on the
  // submission order and a relabeled DAG must share the cache entry.
  Rng rng(1009);
  const Instance values = random_annotated_instance(rng, 24, 2, true);
  std::vector<Task> tasks(values.tasks());
  for (TaskId to = 1; to < tasks.size(); ++to) {
    for (TaskId from = 0; from < to; ++from) {
      if (rng.index(6) == 0) tasks[to].deps.push_back(from);
    }
  }
  const Instance dag(std::move(tasks));
  ASSERT_TRUE(dag.has_dependencies());

  std::vector<TaskId> perm(dag.size());  // new position -> old id
  std::iota(perm.begin(), perm.end(), TaskId{0});
  for (std::size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.index(i)]);
  }
  std::vector<TaskId> position(dag.size());  // old id -> new position
  for (TaskId p = 0; p < perm.size(); ++p) position[perm[p]] = p;
  std::vector<Task> relabeled;
  for (TaskId old_id : perm) {
    Task t = dag[old_id];
    for (TaskId& dep : t.deps) dep = position[dep];
    relabeled.push_back(std::move(t));
  }
  EXPECT_EQ(fingerprint_of(Instance(std::move(relabeled))),
            fingerprint_of(dag));
}

/// A DAG submitted after its edge-free twin was cached must be a cold
/// miss: answering it from the twin's order would violate its edges.
TEST(Fingerprint, DagIsAColdMissAfterItsEdgeFreeTwin) {
  TraceConfig config;
  config.seed = 7;
  config.min_tasks = 41;
  config.max_tasks = 41;
  const Instance dag = generate_ccsd_dag_trace(config);
  ASSERT_EQ(dag.size(), 41u);
  ASSERT_TRUE(dag.has_dependencies());

  SolverService service(ServiceOptions{.workers = 1});
  ServiceRequest request;
  request.solver = "SCMR";
  request.capacity_factor = 1.5;
  request.instance = dag.without_dependencies();
  const ServiceResponse twin = service.handle(request);
  ASSERT_EQ(twin.status, WireResponse::Status::kOk) << twin.error;
  EXPECT_EQ(twin.cache, WireResponse::CacheOutcome::kMiss);

  request.instance = dag;
  const ServiceResponse response = service.handle(request);
  ASSERT_EQ(response.status, WireResponse::Status::kOk) << response.error;
  EXPECT_EQ(response.cache, WireResponse::CacheOutcome::kMiss);
  EXPECT_NEAR(response.makespan, 15.64, 0.005);

  SolveOptions options;
  options.compute_bounds = false;
  const SolveResult fresh = solve(
      SolveRequest{.instance = dag, .capacity = 1.5 * dag.min_capacity()},
      "SCMR", options);
  EXPECT_EQ(response.makespan, fresh.makespan);
  EXPECT_EQ(response.order, fresh.schedule.comm_order());

  const ServiceCounters counters = service.counters();
  EXPECT_EQ(counters.cache.hits, 0u);
  EXPECT_EQ(counters.cache.misses, 2u);
  EXPECT_EQ(counters.errors, 0u);
}

}  // namespace
}  // namespace dts
