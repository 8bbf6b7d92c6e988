/// Differential suite for the indexed candidate selection
/// (heuristics/candidate_index.hpp): the dynamic and corrected executors
/// must emit bit-for-bit the schedules of the linear reference kept below
/// — the loop that rescans every eligible pending task per pick with the
/// SoA pick_candidate, each floored at its predecessors' ends — on
/// chemistry traces at three time scales, the duplex CCSD trace, CCSD-DAG
/// contraction chains (whole and in batches of 16, on one and two
/// channels, at three time scales), a capacity sweep, integer-tie
/// instances and the same instances with ~1e-12 comm jitter (which drives
/// the near-tie fallback), plus the auto-selecting batch runtime (subset
/// ids, carried state). A second suite guards the work counters' scaling
/// exponent.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/batch.hpp"
#include "core/compiled.hpp"
#include "core/johnson.hpp"
#include "core/registry.hpp"
#include "heuristics/bin_packing.hpp"
#include "heuristics/corrections.hpp"
#include "heuristics/dynamic.hpp"
#include "heuristics/gilmore_gomory.hpp"
#include "heuristics/static_orders.hpp"
#include "support/contract.hpp"
#include "support/rng.hpp"
#include "trace/generators.hpp"
#include "trace/transforms.hpp"

namespace dts {
namespace {

constexpr DynamicCriterion kCriteria[] = {DynamicCriterion::kLargestComm,
                                          DynamicCriterion::kSmallestComm,
                                          DynamicCriterion::kMaxAcceleration};

/// Whether every predecessor of `id` is scheduled in `out`; `floor` is
/// then the latest predecessor computation end.
bool eligible(const CompiledInstance& ci, const Schedule& out, TaskId id,
              Time& floor) {
  floor = 0.0;
  for (const TaskId dep : ci.deps(id)) {
    if (!out[dep].scheduled()) return false;
    floor = std::max(floor, out[dep].comp_start + ci.comp(dep));
  }
  return true;
}

/// The linear reference: every pick rescans the pending tasks that are
/// eligible and fit and runs pick_candidate over them in pending order,
/// each floored at its predecessors' ends. `corrected` follows the head
/// of `order` while it is eligible and fits (paper §4.3); otherwise it is
/// the dynamic policy (§4.2) with `order` as the tie-breaking priority.
void reference_execute(const CompiledInstance& ci,
                       std::span<const TaskId> order, DynamicCriterion c,
                       bool corrected, Engine& state, Schedule& out) {
  std::vector<TaskId> pending(order.begin(), order.end());
  std::vector<TaskId> fitting;
  std::vector<Time> floors;
  while (!pending.empty()) {
    TaskId chosen = pending.front();
    Time floor = 0.0;
    if (!corrected || !eligible(ci, out, chosen, floor) ||
        !state.fits(ci.mem(chosen))) {
      fitting.clear();
      floors.clear();
      for (const TaskId id : pending) {
        if (eligible(ci, out, id, floor) && state.fits(ci.mem(id))) {
          fitting.push_back(id);
          floors.push_back(floor);
        }
      }
      if (fitting.empty()) {
        if (!state.advance_to_next_release()) {
          throw std::invalid_argument("reference: task exceeds capacity");
        }
        continue;
      }
      chosen = pick_candidate(ci, state, fitting, c, floors);
      floor = floors[static_cast<std::size_t>(
          std::find(fitting.begin(), fitting.end(), chosen) - fitting.begin())];
    }
    const TaskTimes tt = state.start(chosen, floor);
    out.set(chosen, tt.comm_start, tt.comp_start);
    pending.erase(std::find(pending.begin(), pending.end(), chosen));
  }
}

void indexed_execute(const CompiledInstance& ci, std::span<const TaskId> order,
                     DynamicCriterion c, bool corrected, Engine& state,
                     Schedule& out, SelectionStats* stats = nullptr) {
  if (corrected) {
    execute_corrected(ci, order, c, state, out, stats);
  } else {
    execute_dynamic(ci, order, c, state, out, stats);
  }
}

bool bit_equal(Time a, Time b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

::testing::AssertionResult identical(const Schedule& a, const Schedule& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure() << "schedule sizes differ";
  }
  for (TaskId id = 0; id < a.size(); ++id) {
    if (!bit_equal(a[id].comm_start, b[id].comm_start) ||
        !bit_equal(a[id].comp_start, b[id].comp_start)) {
      return ::testing::AssertionFailure()
             << "task " << id << ": comm " << a[id].comm_start << " vs "
             << b[id].comm_start << ", comp " << a[id].comp_start << " vs "
             << b[id].comp_start;
    }
  }
  return ::testing::AssertionSuccess();
}

/// The corrected heuristics' base order, as run_heuristic builds it: the
/// Johnson order, repaired against the edges on a DAG.
std::vector<TaskId> corrected_order(const Instance& inst) {
  std::vector<TaskId> order = johnson_order(inst);
  if (inst.has_dependencies()) order = legalize_order(inst, order);
  return order;
}

/// Runs the six dynamic/corrected heuristics both ways on a fresh engine
/// and expects identical schedules; accumulates the index's counters.
void expect_six_identical(const Instance& inst, Mem capacity,
                          const std::string& label, SelectionStats& stats) {
  const CompiledInstance ci(inst);
  const std::vector<TaskId> submission = inst.submission_order();
  const std::vector<TaskId> johnson = corrected_order(inst);
  for (const bool corrected : {false, true}) {
    const std::vector<TaskId>& order = corrected ? johnson : submission;
    for (const DynamicCriterion c : kCriteria) {
      Engine ref_state(ci, capacity);
      Engine idx_state(ci, capacity);
      Schedule ref(inst.size());
      Schedule idx(inst.size());
      reference_execute(ci, order, c, corrected, ref_state, ref);
      indexed_execute(ci, order, c, corrected, idx_state, idx, &stats);
      EXPECT_TRUE(identical(ref, idx))
          << label << " "
          << (corrected ? to_corrected_acronym(c) : to_acronym(c));
    }
  }
}

constexpr double kCapacityFactors[] = {1.0, 1.125, 1.25, 1.5, 2.0, 3.0};

void sweep_capacities(const Instance& inst, const std::string& label,
                      SelectionStats& stats) {
  for (const double f : kCapacityFactors) {
    expect_six_identical(inst, f * inst.min_capacity(),
                         label + " x" + std::to_string(f) + " mc", stats);
  }
}

TraceConfig trace_config(std::uint64_t seed, Machine machine) {
  return TraceConfig{.seed = seed,
                     .min_tasks = 100,
                     .max_tasks = 160,
                     .machine = machine};
}

TEST(CandidateIndex, HartreeFockAtThreeTimeScales) {
  SelectionStats stats;
  for (const std::uint64_t seed : {1}) {
    const Instance hf =
        generate_hf_trace(trace_config(seed, machine_from_name("paper")));
    sweep_capacities(hf, "HF", stats);
    sweep_capacities(scale_times(hf, 1e3, 1e3), "HF x1e3", stats);
    sweep_capacities(scale_times(hf, 1e-3, 1e-3), "HF x1e-3", stats);
  }
  EXPECT_GT(stats.picks, 0u);
}

TEST(CandidateIndex, CcsdSingleAndDuplex) {
  SelectionStats stats;
  for (const std::uint64_t seed : {1}) {
    sweep_capacities(
        generate_ccsd_trace(trace_config(seed, machine_from_name("paper"))),
        "CCSD", stats);
    const Instance duplex =
        generate_trace(ChemistryKernel::kCoupledClusterSD,
                       trace_config(seed, machine_from_name("duplex-pcie")));
    ASSERT_EQ(duplex.num_channels(), 2u);
    sweep_capacities(duplex, "CCSD-duplex", stats);
  }
  EXPECT_GT(stats.picks, 0u);
}

/// Integer durations and footprints over 1-3 channels: exact idle ties
/// everywhere. `jitter` perturbs each comm by a relative ~1e-12, turning
/// exact ties into tolerance ties the index must hand to the scan. `dag`
/// gives about a third of the tasks a predecessor among the earlier
/// ones, so ties also meet predecessor floors.
Instance integer_tie_instance(Rng& rng, std::size_t channels, bool jitter,
                              bool dag = false) {
  std::vector<Task> tasks(30 + rng.index(30));
  for (std::size_t k = 0; k < tasks.size(); ++k) {
    Task& t = tasks[k];
    t.comm = static_cast<Time>(rng.index(6));
    t.comp = static_cast<Time>(rng.index(6));
    t.mem = static_cast<Mem>(1 + rng.index(5));
    t.channel = static_cast<ChannelId>(rng.index(channels));
    if (jitter && rng.chance(0.5)) {
      t.comm *= 1.0 + 1e-12 * static_cast<double>(1 + rng.index(9));
    }
    if (dag && k > 0 && rng.chance(0.35)) {
      t.deps.push_back(static_cast<TaskId>(rng.index(k)));
    }
  }
  return Instance(std::move(tasks));
}

TEST(CandidateIndex, IntegerTiesAndJitteredNearTies) {
  SelectionStats exact;
  SelectionStats jittered;
  for (const bool jitter : {false, true}) {
    Rng rng(91);
    for (int iter = 0; iter < 10; ++iter) {
      const Instance inst =
          integer_tie_instance(rng, 1 + static_cast<std::size_t>(iter % 3),
                               jitter);
      sweep_capacities(inst,
                       std::string(jitter ? "jittered" : "integer") + " #" +
                           std::to_string(iter),
                       jitter ? jittered : exact);
    }
  }
  EXPECT_GT(exact.picks, 0u);
  EXPECT_GT(jittered.fallback_picks, 0u)
      << "the jittered instances must exercise the near-tie fallback";
}

TEST(CandidateIndex, IntegerTiesAndJitteredNearTiesOnDags) {
  SelectionStats jittered;
  for (const bool jitter : {false, true}) {
    Rng rng(92);
    for (int iter = 0; iter < 20; ++iter) {
      SelectionStats stats;
      const Instance inst = integer_tie_instance(
          rng, 1 + static_cast<std::size_t>(iter % 3), jitter, true);
      sweep_capacities(inst,
                       std::string(jitter ? "jittered" : "integer") +
                           " DAG #" + std::to_string(iter),
                       jitter ? jittered : stats);
    }
  }
  EXPECT_GT(jittered.fallback_picks, 0u);
}

/// Per-batch order of a static heuristic, restricted to `ids` (the batch
/// runtime's rule: the policy on the subset instance, mapped back).
std::vector<TaskId> static_batch_order(HeuristicId id, const Instance& inst,
                                       std::span<const TaskId> ids,
                                       Mem capacity) {
  const Instance sub = inst.subset(ids);
  std::vector<TaskId> local;
  switch (id) {
    case HeuristicId::kOS: local = sub.submission_order(); break;
    case HeuristicId::kGG: local = gilmore_gomory_order(sub); break;
    case HeuristicId::kBP: local = bin_packing_order(sub, capacity); break;
    case HeuristicId::kOOSIM:
      local = static_order(sub, StaticOrderPolicy::kJohnson);
      break;
    case HeuristicId::kIOCMS:
      local = static_order(sub, StaticOrderPolicy::kIncreasingComm);
      break;
    case HeuristicId::kDOCPS:
      local = static_order(sub, StaticOrderPolicy::kDecreasingComp);
      break;
    case HeuristicId::kIOCCS:
      local = static_order(sub, StaticOrderPolicy::kIncreasingCommPlusComp);
      break;
    case HeuristicId::kDOCCS:
      local = static_order(sub, StaticOrderPolicy::kDecreasingCommPlusComp);
      break;
    default: throw std::logic_error("not a static heuristic");
  }
  if (sub.has_dependencies()) local = legalize_order(sub, local);
  std::vector<TaskId> global;
  for (const TaskId k : local) global.push_back(ids[k]);
  return global;
}

/// The selection criterion of a dynamic or corrected heuristic.
DynamicCriterion criterion_of(HeuristicId h) {
  if (h == HeuristicId::kLCMR || h == HeuristicId::kOOLCMR) {
    return DynamicCriterion::kLargestComm;
  }
  if (h == HeuristicId::kSCMR || h == HeuristicId::kOOSCMR) {
    return DynamicCriterion::kSmallestComm;
  }
  return DynamicCriterion::kMaxAcceleration;
}

/// The auto-selecting batch runtime with the linear reference in place of
/// the indexed executors: per batch of 16, every heuristic runs from the
/// carried state and the earliest finisher (then the earliest link) wins.
Schedule reference_auto_batch(const Instance& inst, Mem capacity) {
  const CompiledInstance ci(inst);
  const std::vector<TaskId> submission = inst.submission_order();
  Engine::Snapshot carried;
  carried.comm_available.assign(inst.num_channels(), 0.0);
  Schedule committed(inst.size());
  for (std::size_t lo = 0; lo < submission.size(); lo += 16) {
    const std::span<const TaskId> ids(
        &submission[lo], std::min<std::size_t>(16, submission.size() - lo));
    Engine best_state(ci, capacity, &carried);
    Schedule best(inst.size());
    bool have_best = false;
    for (const HeuristicId h : all_heuristic_ids()) {
      Engine state(ci, capacity, &carried);
      Schedule trial(inst.size());
      const HeuristicCategory cat = info(h).category;
      if (cat == HeuristicCategory::kDynamic ||
          cat == HeuristicCategory::kCorrected) {
        const bool corrected = cat == HeuristicCategory::kCorrected;
        const DynamicCriterion c = criterion_of(h);
        const std::vector<TaskId> order =
            corrected
                ? static_batch_order(HeuristicId::kOOSIM, inst, ids, capacity)
                : std::vector<TaskId>(ids.begin(), ids.end());
        reference_execute(ci, order, c, corrected, state, trial);
      } else {
        for (const TaskId id : static_batch_order(h, inst, ids, capacity)) {
          while (!state.fits(ci.mem(id))) {
            if (!state.advance_to_next_release()) {
              throw std::invalid_argument("reference: task exceeds capacity");
            }
          }
          const TaskTimes tt = state.start(id);
          trial.set(id, tt.comm_start, tt.comp_start);
        }
      }
      const Time end = state.comp_available();
      const Time best_end = best_state.comp_available();
      const bool better =
          !have_best || definitely_less(end, best_end) ||
          (!definitely_less(best_end, end) &&
           definitely_less(state.comm_available(),
                           best_state.comm_available()));
      if (better) {
        best_state = state;
        best = trial;
        have_best = true;
      }
    }
    for (const TaskId id : ids) committed[id] = best[id];
    carried = best_state.snapshot();
  }
  return committed;
}

TEST(CandidateIndex, AutoBatchMatchesTheLinearReference) {
  const std::vector<HeuristicId> all = all_heuristic_ids();
  for (const std::uint64_t seed : {3}) {
    const Instance hf = scale_times(
        generate_hf_trace(trace_config(seed, machine_from_name("paper"))),
        1e3, 1e3);
    const Instance ccsd =
        generate_trace(ChemistryKernel::kCoupledClusterSD,
                       trace_config(seed, machine_from_name("duplex-pcie")));
    for (const Instance* inst : {&hf, &ccsd}) {
      for (const double f : {1.125, 1.5, 3.0}) {
        const Mem capacity = f * inst->min_capacity();
        EXPECT_TRUE(identical(
            reference_auto_batch(*inst, capacity),
            schedule_in_batches_auto(*inst, capacity, 16, all).schedule))
            << "seed " << seed << " x" << f << " mc, "
            << inst->num_channels() << " channel(s)";
      }
    }
  }
}

constexpr HeuristicId kSelecting[] = {
    HeuristicId::kLCMR,   HeuristicId::kSCMR,   HeuristicId::kMAMR,
    HeuristicId::kOOLCMR, HeuristicId::kOOSCMR, HeuristicId::kOOMAMR};

/// schedule_in_batches for one dynamic or corrected heuristic with the
/// linear reference in place of the indexed executors: batches of
/// `batch_size` along the topological order, one live engine, and one
/// schedule in which later batches read their predecessors' ends.
Schedule reference_in_batches(HeuristicId h, const Instance& inst,
                              Mem capacity, std::size_t batch_size) {
  const CompiledInstance ci(inst);
  const std::vector<TaskId> sequence = inst.topological_order();
  Engine state(ci, capacity);
  Schedule out(inst.size());
  const bool corrected = info(h).category == HeuristicCategory::kCorrected;
  const DynamicCriterion c = criterion_of(h);
  for (std::size_t lo = 0; lo < sequence.size(); lo += batch_size) {
    const std::span<const TaskId> ids(
        &sequence[lo], std::min(batch_size, sequence.size() - lo));
    const std::vector<TaskId> order =
        corrected ? static_batch_order(HeuristicId::kOOSIM, inst, ids, capacity)
                  : std::vector<TaskId>(ids.begin(), ids.end());
    reference_execute(ci, order, c, corrected, state, out);
  }
  return out;
}

/// Contraction chains: eligibility, predecessor floors and the list of
/// tasks floored after their channel's start, over whole traces and
/// batches of 16 that read earlier batches' ends from the schedule.
TEST(CandidateIndex, CcsdDagWholeTraceAndBatches) {
  SelectionStats stats;
  for (const char* machine : {"paper", "duplex-pcie"}) {
    const Instance dag =
        generate_ccsd_dag_trace(trace_config(1, machine_from_name(machine)));
    ASSERT_TRUE(dag.has_dependencies());
    for (const double s : {1.0, 1e-3, 1e3}) {
      const Instance inst = scale_times(dag, s, s);
      const std::string label =
          std::string("CCSD-DAG ") + machine + " x" + std::to_string(s);
      sweep_capacities(inst, label, stats);
      for (const double f : {1.125, 1.5, 3.0}) {
        const Mem capacity = f * inst.min_capacity();
        for (const HeuristicId h : kSelecting) {
          EXPECT_TRUE(identical(reference_in_batches(h, inst, capacity, 16),
                                schedule_in_batches(h, inst, capacity, 16)))
              << label << " x" << f << " mc, batches of 16, " << info(h).name;
        }
      }
    }
  }
  EXPECT_GT(stats.picks, 0u);
}

/// A run whose task waits on a predecessor outside it that was never
/// scheduled schedules what it can, then names both.
TEST(CandidateIndex, UnscheduledOutsidePredecessorIsNamed) {
  std::vector<Task> tasks(3);
  for (Task& t : tasks) {
    t.comm = 1.0;
    t.comp = 1.0;
    t.mem = 1.0;
  }
  tasks[1].deps = {0};
  const Instance inst(std::move(tasks));
  const CompiledInstance ci(inst);
  const std::vector<TaskId> ids = {1, 2};
  for (const bool corrected : {false, true}) {
    Engine state(ci, 4.0);
    Schedule out(inst.size());
    try {
      indexed_execute(ci, ids, DynamicCriterion::kLargestComm, corrected,
                      state, out);
      ADD_FAILURE() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                std::string(corrected ? "execute_corrected" : "execute_dynamic") +
                    ": task 1 waits on predecessor 0 which is neither "
                    "scheduled nor pending here");
    }
    EXPECT_TRUE(out[2].scheduled());
  }
}

// --------------------------------------------------- complexity guard

/// Least-squares slope of log(work) over log(n).
double loglog_slope(const std::vector<double>& n,
                    const std::vector<double>& work) {
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  const double k = static_cast<double>(n.size());
  for (std::size_t i = 0; i < n.size(); ++i) {
    const double x = std::log(n[i]);
    const double y = std::log(work[i]);
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  return (k * sxy - sx * sy) / (k * sxx - sx * sx);
}

using Generator = std::function<Instance(const TraceConfig&)>;

Generator kernel_traces(ChemistryKernel kernel) {
  return [kernel](TraceConfig config) {
    // A duplex trace adds one write-back per fetched task.
    const std::size_t per_task = config.machine.duplex() ? 2 : 1;
    config.min_tasks /= per_task;
    config.max_tasks /= per_task;
    return generate_trace(kernel, config);
  };
}

/// Deterministic complexity guard: the index's work counter (tree nodes
/// visited, floored tasks visited and fallback candidates scanned) over
/// all six heuristics at
/// 1.5 mc must scale no worse than n^1.2 from n = 1k to 16k tasks. The
/// linear scan it replaces scales as n^2.
void expect_subquadratic(const Generator& generate, Machine machine) {
  if (kAuditsEnabled) {
    GTEST_SKIP() << "audit builds cross-check every pick against the O(n) "
                    "scan; the counters are build-independent and guarded "
                    "by the other builds";
  }
  std::vector<double> sizes;
  std::vector<double> work;
  for (std::size_t n = 1000; n <= 16000; n *= 2) {
    const TraceConfig config{
        .seed = 5, .min_tasks = n, .max_tasks = n, .machine = machine};
    const Instance inst = generate(config);
    const CompiledInstance ci(inst);
    const Mem capacity = 1.5 * inst.min_capacity();
    const std::vector<TaskId> submission = inst.submission_order();
    const std::vector<TaskId> johnson = corrected_order(inst);
    SelectionStats stats;
    for (const DynamicCriterion c : kCriteria) {
      for (const bool corrected : {false, true}) {
        Engine state(ci, capacity);
        Schedule out(inst.size());
        indexed_execute(ci, corrected ? johnson : submission, c, corrected,
                        state, out, &stats);
      }
    }
    sizes.push_back(static_cast<double>(inst.size()));
    work.push_back(static_cast<double>(stats.work()));
  }
  const double slope = loglog_slope(sizes, work);
  EXPECT_LE(slope, 1.2) << "selection work grows as n^" << slope;
  EXPECT_GE(slope, 0.9) << "the work counter stopped counting";
}

TEST(SelectionScaling, HartreeFockSingleChannel) {
  expect_subquadratic(kernel_traces(ChemistryKernel::kHartreeFock),
                      machine_from_name("paper"));
}

TEST(SelectionScaling, HartreeFockDuplex) {
  expect_subquadratic(kernel_traces(ChemistryKernel::kHartreeFock),
                      machine_from_name("duplex-pcie"));
}

TEST(SelectionScaling, CcsdSingleChannel) {
  expect_subquadratic(kernel_traces(ChemistryKernel::kCoupledClusterSD),
                      machine_from_name("paper"));
}

TEST(SelectionScaling, CcsdDuplex) {
  expect_subquadratic(kernel_traces(ChemistryKernel::kCoupledClusterSD),
                      machine_from_name("duplex-pcie"));
}

TEST(SelectionScaling, CcsdDagSingleChannel) {
  expect_subquadratic(generate_ccsd_dag_trace, machine_from_name("paper"));
}

TEST(SelectionScaling, CcsdDagDuplex) {
  expect_subquadratic(generate_ccsd_dag_trace,
                      machine_from_name("duplex-pcie"));
}

}  // namespace
}  // namespace dts
