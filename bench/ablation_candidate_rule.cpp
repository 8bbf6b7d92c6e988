/// Ablation: the dynamic candidate rule (DESIGN.md §7). The paper's
/// dynamic selection first filters candidates to those inducing *minimum
/// idle time on the computation resource*, then applies the criterion.
/// This ablation compares against applying the criterion alone (no idle
/// filter), isolating how much of the dynamic heuristics' quality comes
/// from the idle filter versus the criterion.

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/compiled.hpp"
#include "core/johnson.hpp"
#include "core/registry.hpp"
#include "heuristics/dynamic.hpp"

namespace {

using namespace dts;

/// Dynamic scheduling with the idle filter disabled: among fitting tasks,
/// pick purely by criterion.
Schedule schedule_criterion_only(const Instance& inst,
                                 DynamicCriterion criterion, Mem capacity) {
  const CompiledInstance ci(inst);
  Engine engine(ci, capacity);
  Schedule out(inst.size());
  std::vector<TaskId> pending = inst.submission_order();
  std::vector<TaskId> fitting;
  while (!pending.empty()) {
    fitting.clear();
    for (TaskId id : pending) {
      if (engine.fits(ci.mem(id))) fitting.push_back(id);
    }
    if (fitting.empty()) {
      if (!engine.advance_to_next_release()) {
        throw std::invalid_argument("task exceeds capacity");
      }
      continue;
    }
    TaskId best = fitting.front();
    for (TaskId id : fitting) {
      const bool better = criterion == DynamicCriterion::kLargestComm
                              ? ci.comm(id) > ci.comm(best)
                          : criterion == DynamicCriterion::kSmallestComm
                              ? ci.comm(id) < ci.comm(best)
                              : ci.acceleration(id) > ci.acceleration(best);
      if (better) best = id;
    }
    const TaskTimes tt = engine.start(best);
    out.set(best, tt.comm_start, tt.comp_start);
    pending.erase(std::find(pending.begin(), pending.end(), best));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Options options = bench::Options::parse(argc, argv);

  for (ChemistryKernel kernel :
       {ChemistryKernel::kHartreeFock, ChemistryKernel::kCoupledClusterSD}) {
    const std::vector<Instance> traces = bench::corpus(kernel, options);
    TextTable table({"capacity", "criterion", "with idle filter (paper)",
                     "criterion only", "filter gain"});
    for (double factor : {1.0, 1.5, 2.0}) {
      const std::pair<DynamicCriterion, HeuristicId> rules[] = {
          {DynamicCriterion::kLargestComm, HeuristicId::kLCMR},
          {DynamicCriterion::kSmallestComm, HeuristicId::kSCMR},
          {DynamicCriterion::kMaxAcceleration, HeuristicId::kMAMR}};
      for (const auto& rule : rules) {
        const DynamicCriterion crit = rule.first;
        const HeuristicId id = rule.second;
        std::vector<double> with_f(traces.size());
        std::vector<double> without_f(traces.size());
        bench::pool().for_each(traces.size(), [&](std::size_t t) {
          const Time lower = omim(traces[t]);
          const Mem cap = traces[t].min_capacity() * factor;
          with_f[t] =
              run_heuristic(id, traces[t], cap).makespan(traces[t]) / lower;
          without_f[t] = schedule_criterion_only(traces[t], crit, cap)
                             .makespan(traces[t]) /
                         lower;
        });
        const double med_with = summarize(std::move(with_f)).median;
        const double med_without = summarize(std::move(without_f)).median;
        table.add_row(
            {format_fixed(factor, 3) + " mc", std::string(to_acronym(crit)),
             format_fixed(med_with, 4), format_fixed(med_without, 4),
             format_fixed(100.0 * (med_without / med_with - 1.0), 2) + "%"});
      }
    }
    std::printf(
        "Ablation (min-idle candidate filter) — %s over %zu traces:\n%s\n",
        std::string(to_string(kernel)).c_str(), traces.size(),
        table.to_ascii().c_str());
    bench::write_table_csv(options,
                           std::string("ablation_candidate_rule_") +
                               std::string(to_string(kernel)),
                           table);
  }
  return 0;
}
