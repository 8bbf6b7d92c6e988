/// Solve-engine throughput — the data-oriented fast path's report card.
/// For HF and CCSD corpora in both single-channel (paper machine) and
/// duplex-PCIe mixes, measures:
///
///  * candidate evaluations/second over a local-search-style neighborhood
///    (every adjacent swap of the Johnson order), on BOTH engines:
///      - legacy: the pre-fast-path scoring loop — a fresh Engine plus
///        Schedule per candidate, the recording evaluate_order, no prefix
///        resume, Schedule::makespan;
///      - fast path: one CompiledInstance + PrefixResumeEvaluator, the
///        loop every solver now runs.
///    The two passes evaluate the identical candidate stream and their
///    makespans are cross-checked bitwise before any number is reported.
///  * candidate_eval_speedup = fastpath / legacy — a machine-robust ratio
///    (both passes run on the same machine seconds apart).
///  * end-to-end local-search solves/second over the corpus, plus the
///    median solved makespan (deterministic, baseline-guarded tightly).
///
/// Output lands in BENCH_solve_throughput.json; CI guards every row via
/// tools/check_bench_baseline.py: the median task count, the candidate
/// count and the median makespan exactly, the rates and the speedup
/// laxly (higher is better).
///
///   bench_solve_throughput [--quick] [--traces=N] [--seed=S]
///   rows: BENCH_solve_throughput.json, or the file bench::Options names

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/compiled.hpp"
#include "core/johnson.hpp"
#include "core/solver.hpp"
#include "report/stats.hpp"
#include "trace/generators.hpp"

namespace {

using namespace dts;

struct ThroughputRow {
  std::size_t median_tasks = 0;
  std::uint64_t candidates = 0;
  double legacy_candidate_evals_per_sec = 0.0;
  double fastpath_candidate_evals_per_sec = 0.0;
  double candidate_eval_speedup = 0.0;
  double solves_per_sec = 0.0;
  double median_makespan_seconds = 0.0;
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// The pre-fast-path candidate scoring step: fresh engine and schedule
/// per candidate, full recorded simulation, makespan scan.
Time legacy_candidate_eval(const Instance& inst, const CompiledInstance& ci,
                           std::span<const TaskId> order, Mem capacity) {
  Engine engine;
  Schedule sched(inst.size());
  (void)evaluate_order(ci, order, capacity, engine, sched);
  return sched.makespan(inst);
}

/// One (kernel, mode) row: neighborhood-eval throughput on both engines
/// plus end-to-end solves. Returns false on a bitwise makespan mismatch
/// between the two engines (the bench then fails).
bool measure(const std::vector<Instance>& corpus, ThroughputRow& row,
             bool quick) {
  // The candidate sweep uses a slice of the corpus; repeats scale the
  // stream to enough evaluations for a stable clock on both engines.
  const std::size_t sweep_traces = std::min<std::size_t>(corpus.size(),
                                                         quick ? 4 : 12);
  std::vector<std::vector<TaskId>> bases(sweep_traces);
  std::vector<Mem> capacities(sweep_traces);
  std::size_t sweep_size = 0;
  std::vector<std::size_t> tasks;
  for (const Instance& inst : corpus) tasks.push_back(inst.size());
  for (std::size_t t = 0; t < sweep_traces; ++t) {
    bases[t] = johnson_order(corpus[t]);
    capacities[t] = 1.5 * corpus[t].min_capacity();
    sweep_size += bases[t].size() - 1;
  }
  const std::uint64_t target = quick ? 20000 : 60000;
  const std::uint64_t repeats = std::max<std::uint64_t>(
      1, target / std::max<std::size_t>(sweep_size, 1));
  row.candidates = repeats * sweep_size;
  {
    std::vector<double> sorted_tasks(tasks.begin(), tasks.end());
    row.median_tasks = static_cast<std::size_t>(summarize(sorted_tasks).median);
  }

  // Pass 1: legacy engine. Makespans of the first repeat are kept for the
  // bitwise cross-check.
  std::vector<Time> legacy_ms;
  legacy_ms.reserve(sweep_size);
  const auto legacy_start = std::chrono::steady_clock::now();
  for (std::uint64_t rep = 0; rep < repeats; ++rep) {
    for (std::size_t t = 0; t < sweep_traces; ++t) {
      const CompiledInstance compiled(corpus[t]);
      std::vector<TaskId>& order = bases[t];
      for (std::size_t i = 0; i + 1 < order.size(); ++i) {
        std::swap(order[i], order[i + 1]);
        const Time ms = legacy_candidate_eval(corpus[t], compiled, order,
                                              capacities[t]);
        std::swap(order[i], order[i + 1]);
        if (rep == 0) legacy_ms.push_back(ms);
      }
    }
  }
  const double legacy_wall = seconds_since(legacy_start);

  // Pass 2: the fast path, identical candidate stream.
  std::size_t check = 0;
  bool match = true;
  const auto fast_start = std::chrono::steady_clock::now();
  for (std::size_t t = 0; t < sweep_traces && match; ++t) {
    const CompiledInstance compiled(corpus[t]);
    PrefixResumeEvaluator evaluator(compiled, capacities[t]);
    (void)evaluator.set_reference(bases[t]);
    std::vector<TaskId>& order = bases[t];
    for (std::uint64_t rep = 0; rep < repeats && match; ++rep) {
      for (std::size_t i = 0; i + 1 < order.size(); ++i) {
        std::swap(order[i], order[i + 1]);
        const Time ms = evaluator.evaluate(order);
        std::swap(order[i], order[i + 1]);
        if (rep == 0 && ms != legacy_ms[check + i]) {
          std::fprintf(stderr,
                       "BITWISE MISMATCH trace %zu candidate %zu: "
                       "legacy %.17g fast %.17g\n",
                       t, i, legacy_ms[check + i], ms);
          match = false;
          break;
        }
      }
    }
    check += order.size() - 1;
  }
  const double fast_wall = seconds_since(fast_start);
  if (!match) return false;

  const double evals = static_cast<double>(row.candidates);
  row.legacy_candidate_evals_per_sec =
      legacy_wall > 0.0 ? evals / legacy_wall : 0.0;
  row.fastpath_candidate_evals_per_sec =
      fast_wall > 0.0 ? evals / fast_wall : 0.0;
  row.candidate_eval_speedup =
      legacy_wall > 0.0 && fast_wall > 0.0 ? legacy_wall / fast_wall : 0.0;

  // End-to-end local-search solves over the whole corpus (deterministic
  // seed, so the median makespan doubles as a correctness guard).
  std::vector<double> makespans;
  const auto solve_start = std::chrono::steady_clock::now();
  for (const Instance& inst : corpus) {
    SolveRequest request;
    request.instance = inst;
    request.capacity = 1.5 * inst.min_capacity();
    SolveOptions options;
    options.compute_bounds = false;
    makespans.push_back(solve(request, "local-search", options).makespan);
  }
  const double solve_wall = seconds_since(solve_start);
  row.solves_per_sec =
      solve_wall > 0.0 ? static_cast<double>(corpus.size()) / solve_wall : 0.0;
  row.median_makespan_seconds = summarize(makespans).median;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Options options = bench::Options::parse(argc, argv);

  std::printf("solve-engine throughput — %zu traces/kernel, legacy vs "
              "fast-path candidate scoring\n\n",
              options.traces);

  std::vector<bench::Row> rows;
  TextTable table({"kernel", "mode", "median n", "candidates", "legacy evals/s",
                   "fastpath evals/s", "speedup", "solves/s",
                   "median makespan"});

  for (ChemistryKernel kernel : {ChemistryKernel::kHartreeFock,
                                 ChemistryKernel::kCoupledClusterSD}) {
    for (const bool duplex : {false, true}) {
      std::vector<Instance> corpus;
      if (duplex) {
        TraceConfig config;
        config.machine = machine_from_name("duplex-pcie");
        corpus = generate_process_traces(kernel, options.traces, options.seed,
                                         config);
      } else {
        corpus = bench::corpus(kernel, options);
      }

      const std::string kernel_name(to_string(kernel));
      const std::string mode = duplex ? "duplex" : "single";
      ThroughputRow row;
      if (!measure(corpus, row, options.quick)) {
        std::fprintf(stderr,
                     "fast path disagrees with the reference engine on "
                     "%s/%s — refusing to report throughput\n",
                     kernel_name.c_str(), mode.c_str());
        return 1;
      }

      bench::Row& out = rows.emplace_back(kernel_name + "/" + mode);
      out.exact("traces", std::uint64_t{options.traces});
      out.exact("median_tasks", std::uint64_t{row.median_tasks});
      out.exact("candidates", row.candidates);
      out.exact("median_makespan_seconds", row.median_makespan_seconds);
      out.timing("legacy_candidate_evals_per_sec",
                 row.legacy_candidate_evals_per_sec);
      out.timing("fastpath_candidate_evals_per_sec",
                 row.fastpath_candidate_evals_per_sec);
      out.timing("candidate_eval_speedup", row.candidate_eval_speedup);
      out.timing("solves_per_sec", row.solves_per_sec);

      char n_text[16], cand_text[24], legacy_text[24], fast_text[24],
          speedup_text[16], solve_text[16], ms_text[32];
      std::snprintf(n_text, sizeof n_text, "%zu", row.median_tasks);
      std::snprintf(cand_text, sizeof cand_text, "%llu",
                    static_cast<unsigned long long>(row.candidates));
      std::snprintf(legacy_text, sizeof legacy_text, "%.3g",
                    row.legacy_candidate_evals_per_sec);
      std::snprintf(fast_text, sizeof fast_text, "%.3g",
                    row.fastpath_candidate_evals_per_sec);
      std::snprintf(speedup_text, sizeof speedup_text, "%.1fx",
                    row.candidate_eval_speedup);
      std::snprintf(solve_text, sizeof solve_text, "%.1f",
                    row.solves_per_sec);
      std::snprintf(ms_text, sizeof ms_text, "%.6g s",
                    row.median_makespan_seconds);
      table.add_row({kernel_name, mode, n_text, cand_text, legacy_text,
                     fast_text, speedup_text, solve_text, ms_text});
    }
  }

  std::printf("%s\n", table.to_ascii().c_str());
  return bench::write_rows(options, "solve_throughput", rows) ? 0 : 1;
}
