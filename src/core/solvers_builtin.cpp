/// \file solvers_builtin.cpp
/// Adapters that put every strategy of the library behind the unified
/// Solver interface: the 14 paper heuristics, the auto-scheduler (full and
/// batched), local search, the duplex-aware balance order, the exact
/// solvers and the window heuristic. Each adapter translates the request
/// and options for the free function that implements the strategy — the
/// heuristics and the auto fold live in core/registry.hpp, the batch
/// runtime in core/batch.hpp — and fills a SolveResult from its answer.

#include <algorithm>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/batch.hpp"
#include "core/pool.hpp"
#include "core/registry.hpp"
#include "core/solver.hpp"
#include "exact/branch_bound.hpp"
#include "exact/exhaustive.hpp"
#include "exact/lower_bounds.hpp"
#include "exact/window_solver.hpp"
#include "heuristics/duplex_balance.hpp"
#include "heuristics/local_search.hpp"
#include "milp/milp_solver.hpp"

namespace dts {

namespace {

Time makespan_of(const SolveRequest& request, const Schedule& schedule) {
  return request.instance.empty() ? 0.0 : schedule.makespan(request.instance);
}

/// One paper heuristic by acronym; honors the request's batch window via
/// the batch runtime.
class HeuristicSolver final : public Solver {
 public:
  explicit HeuristicSolver(HeuristicId id) : id_(id) {}

  [[nodiscard]] SolveResult run(const SolveRequest& request,
                                const SolveOptions& /*options*/) const override {
    SolveResult result;
    result.schedule =
        request.batch_size
            ? schedule_in_batches(id_, request.instance, request.capacity,
                                  *request.batch_size)
            : run_heuristic(id_, request.instance, request.capacity);
    result.makespan = makespan_of(request, result.schedule);
    result.winner = std::string(name_of(id_));
    result.evaluations = 1;
    return result;
  }

 private:
  HeuristicId id_;
};

/// Per-batch win counts -> outcomes + overall winner (most wins, ties to
/// the earlier candidate in display order).
void fill_batch_outcomes(const std::vector<HeuristicId>& candidates,
                         const std::vector<HeuristicId>& winners,
                         SolveResult& result) {
  result.outcomes.clear();
  for (HeuristicId id : candidates) {
    CandidateOutcome outcome;
    outcome.name = std::string(name_of(id));
    outcome.batch_wins = static_cast<std::size_t>(
        std::count(winners.begin(), winners.end(), id));
    result.outcomes.push_back(std::move(outcome));
  }
  const auto best = std::max_element(
      result.outcomes.begin(), result.outcomes.end(),
      [](const CandidateOutcome& a, const CandidateOutcome& b) {
        return a.batch_wins < b.batch_wins;  // first max wins ties
      });
  if (best != result.outcomes.end()) result.winner = best->name;
}

/// The paper's envisioned runtime: evaluate every candidate, keep the
/// best, over the whole trace (auto_schedule, core/registry.hpp) or batch
/// by batch (schedule_in_batches_auto, core/batch.hpp). With
/// parallel_candidates the candidates run on the options' executor; with
/// none set, a whole-trace run starts a SolverPool of its own and a
/// batched run stays serial. Both folds pick the same winner as a serial
/// run.
class AutoSolver final : public Solver {
 public:
  AutoSolver(std::vector<HeuristicId> candidates,
             std::optional<std::size_t> forced_batch)
      : candidates_(std::move(candidates)), forced_batch_(forced_batch) {}

  [[nodiscard]] SolveResult run(const SolveRequest& request,
                                const SolveOptions& options) const override {
    const std::optional<std::size_t> batch =
        forced_batch_ ? forced_batch_ : request.batch_size;
    return batch ? run_batched(request, *batch, options)
                 : run_full(request, options);
  }

 private:
  [[nodiscard]] SolveResult run_full(const SolveRequest& request,
                                     const SolveOptions& options) const {
    // With no executor given, the candidates run on a pool of this call's
    // own, which rethrows a candidate's exception to the caller.
    std::optional<SolverPool> local;
    Executor* executor = nullptr;
    if (options.parallel_candidates) {
      executor = options.executor;
      if (executor == nullptr && candidates_.size() > 1) {
        executor = &local.emplace();
      }
    }
    AutoScheduleResult res = auto_schedule(request.instance, request.capacity,
                                           candidates_, executor);
    SolveResult result;
    for (const HeuristicOutcome& o : res.outcomes) {
      result.outcomes.push_back(
          CandidateOutcome{std::string(name_of(o.id)), o.makespan, 0});
    }
    result.winner = std::string(name_of(res.best));
    result.schedule = std::move(res.schedule);
    result.makespan = res.makespan;
    result.evaluations = candidates_.size();
    return result;
  }

  [[nodiscard]] SolveResult run_batched(const SolveRequest& request,
                                        std::size_t batch,
                                        const SolveOptions& options) const {
    SolveResult result;
    BatchAutoResult res = schedule_in_batches_auto(
        request.instance, request.capacity, batch, candidates_,
        options.parallel_candidates ? options.executor : nullptr);
    result.schedule = std::move(res.schedule);
    result.makespan = makespan_of(request, result.schedule);
    fill_batch_outcomes(candidates_, res.winners, result);
    result.evaluations = candidates_.size() * res.winners.size();
    std::ostringstream detail;
    detail << res.winners.size() << " batches of " << batch;
    result.detail = detail.str();
    return result;
  }

  std::vector<HeuristicId> candidates_;
  std::optional<std::size_t> forced_batch_;
};

std::vector<HeuristicId> candidates_for(const SolverSpec& spec,
                                        std::size_t arg_index) {
  if (arg_index >= spec.args.size()) return all_heuristic_ids();
  const std::string& family = spec.args[arg_index];
  if (family == "all") return all_heuristic_ids();
  if (family == "baseline") return heuristics_in(HeuristicCategory::kBaseline);
  if (family == "static") return heuristics_in(HeuristicCategory::kStatic);
  if (family == "dynamic") return heuristics_in(HeuristicCategory::kDynamic);
  if (family == "corrected") {
    return heuristics_in(HeuristicCategory::kCorrected);
  }
  throw std::invalid_argument(
      "solver '" + spec.full + "': unknown candidate family '" + family +
      "' (use all, baseline, static, dynamic or corrected)");
}

/// Hill climbing on top of the best registry heuristic (local_search.hpp).
class LocalSearchSolver final : public Solver {
 public:
  [[nodiscard]] SolveResult run(const SolveRequest& request,
                                const SolveOptions& options) const override {
    LocalSearchOptions search;
    search.max_iterations = options.max_iterations;
    search.max_no_improve = options.max_no_improve;
    search.seed = options.seed;
    const StopCondition stop(options);
    if (stop.armed()) {
      search.should_stop = [&stop] { return stop.stop_requested(); };
    }
    LocalSearchResult res =
        schedule_local_search(request.instance, request.capacity, search);
    SolveResult result;
    result.winner = "local-search";
    result.cancelled = res.stopped;
    result.schedule = std::move(res.schedule);
    result.makespan = res.makespan;
    result.evaluations = res.iterations;
    result.outcomes.push_back(
        CandidateOutcome{"seed-order", res.initial_makespan, 0});
    std::ostringstream detail;
    detail << res.improvements << " accepted moves over " << res.iterations
           << " candidates";
    result.detail = detail.str();
    return result;
  }
};

/// Exact search over independent (transfer, comp) order pairs — the
/// MILP's solution space, per-channel transfer orders included. Honors
/// the deadline/cancellation token; when stopped before the first
/// incumbent it falls back to the submission order so the result is
/// always a complete feasible schedule.
class BranchBoundSolver final : public Solver {
 public:
  explicit BranchBoundSolver(std::size_t max_n) : max_n_(max_n) {}

  [[nodiscard]] SolveResult run(const SolveRequest& request,
                                const SolveOptions& options) const override {
    PairOrderOptions search;
    search.max_n = max_n_;
    if (!request.instance.empty()) {
      // Channel-aware combined lower bound: reaching it proves the
      // incumbent optimal and ends the search without scanning the
      // remaining (n!)^2 pairs.
      search.lower_bound =
          capacity_aware_bounds(request.instance, request.capacity).combined;
    }
    const StopCondition stop(options);
    if (stop.armed()) {
      search.should_stop = [&stop] { return stop.stop_requested(); };
    }
    PairOrderResult res =
        best_pair_order(request.instance, request.capacity, search);
    SolveResult result;
    result.winner = "branch-bound";
    result.cancelled = res.stopped;
    result.evaluations = res.pairs_simulated;
    if (res.makespan == kInfiniteTime) {
      // Stopped before any feasible pair was simulated to completion.
      result.schedule =
          run_heuristic(HeuristicId::kOS, request.instance, request.capacity);
      result.makespan = makespan_of(request, result.schedule);
      result.detail = "stopped before the first incumbent; submission order";
    } else {
      result.schedule = std::move(res.schedule);
      result.makespan = res.makespan;
      // A full scan of the pair space proves optimality just as well as
      // the lower-bound early exit — only an actual stop leaves the
      // result unproven.
      result.proved_optimal = !res.stopped;
      if (result.proved_optimal) result.lower_bound = res.makespan;
      std::ostringstream detail;
      detail << res.pairs_simulated << " order pairs simulated";
      if (res.proved_optimal) detail << "; proved optimal";
      result.detail = detail.str();
    }
    if (!result.proved_optimal) result.lower_bound = search.lower_bound;
    return result;
  }

 private:
  std::size_t max_n_;
};

/// Self-contained 0-1 MILP backend (src/milp/): LP-relaxation
/// branch-and-bound over the paper's §4.5 order binaries, warm-started
/// from the heuristic registry, every integral node scored through the
/// engine co-simulation. Proved-optimal makespans are bitwise equal to
/// branch-bound's (same incumbent discipline over the same finite value
/// set). `milp:T` solves the same instance against a T-step grid bound
/// model (see milp/model.hpp) — the proof and schedule are unaffected.
class MilpSolver final : public Solver {
 public:
  explicit MilpSolver(std::size_t grid) : grid_(grid) {}

  [[nodiscard]] SolveResult run(const SolveRequest& request,
                                const SolveOptions& options) const override {
    MilpOptions milp;
    milp.grid = grid_;
    milp.max_nodes = options.max_iterations;
    if (!request.instance.empty()) {
      milp.lower_bound =
          capacity_aware_bounds(request.instance, request.capacity).combined;
    }
    const StopCondition stop(options);
    if (stop.armed()) {
      milp.should_stop = [&stop] { return stop.stop_requested(); };
    }
    MilpResult res =
        solve_order_milp(request.instance, request.capacity, milp);
    SolveResult result;
    result.winner = "milp";
    result.cancelled = res.stopped;
    result.evaluations = res.nodes_explored;
    result.schedule = std::move(res.schedule);
    result.makespan = res.makespan;
    result.proved_optimal = res.proved_optimal;
    result.lower_bound = res.lower_bound;
    std::ostringstream detail;
    detail << res.nodes_explored << " nodes, " << res.leaves_scored
           << " leaves scored, " << res.lp_pivots << " simplex pivots";
    if (res.proved_optimal) detail << "; proved optimal";
    result.detail = detail.str();
    return result;
  }

 private:
  std::size_t grid_;
};

/// Duplex-aware order heuristic (heuristics/duplex_balance.hpp):
/// per-channel Johnson sequences merged by least committed per-engine
/// load. A RegisterSolver-style drop-in — no enum edits, the strategy
/// lives entirely behind the registry key.
class DuplexBalanceSolver final : public Solver {
 public:
  [[nodiscard]] SolveResult run(const SolveRequest& request,
                                const SolveOptions& /*options*/) const override {
    SolveResult result;
    result.winner = "duplex-balance";
    result.schedule =
        schedule_duplex_balance(request.instance, request.capacity);
    result.makespan = makespan_of(request, result.schedule);
    result.evaluations = 1;
    return result;
  }
};

/// Exact search over permutation (common-order) schedules. Honors the
/// deadline/cancellation token like BranchBoundSolver, with the same
/// submission-order fallback when stopped before the first incumbent.
class ExhaustiveSolver final : public Solver {
 public:
  explicit ExhaustiveSolver(std::size_t max_n) : max_n_(max_n) {}

  [[nodiscard]] SolveResult run(const SolveRequest& request,
                                const SolveOptions& options) const override {
    ExhaustiveOptions search;
    search.max_n = max_n_;
    search.executor = options.executor;
    const StopCondition stop(options);
    if (stop.armed()) {
      search.should_stop = [&stop] { return stop.stop_requested(); };
    }
    ExhaustiveResult res =
        best_common_order(request.instance, request.capacity, search);
    SolveResult result;
    result.winner = "exhaustive";
    result.cancelled = res.stopped;
    result.evaluations = res.permutations_tried;
    if (res.makespan == kInfiniteTime) {
      result.schedule =
          run_heuristic(HeuristicId::kOS, request.instance, request.capacity);
      result.makespan = makespan_of(request, result.schedule);
      result.detail = "stopped before the first incumbent; submission order";
    } else {
      result.schedule = std::move(res.schedule);
      result.makespan = res.makespan;
    }
    return result;
  }

 private:
  std::size_t max_n_;
};

/// The paper's iterative MILP heuristic (window_solver.hpp), lp.k.
class WindowedSolver final : public Solver {
 public:
  explicit WindowedSolver(WindowOptions options) : options_(options) {}

  [[nodiscard]] SolveResult run(const SolveRequest& request,
                                const SolveOptions& options) const override {
    WindowOptions window = options_;
    window.executor = options.executor;
    const StopCondition stop(options);
    if (stop.armed()) {
      window.should_stop = [&stop] { return stop.stop_requested(); };
    }
    WindowedResult res =
        solve_windowed(request.instance, request.capacity, window);
    SolveResult result;
    result.schedule = std::move(res.schedule);
    result.makespan = makespan_of(request, result.schedule);
    result.winner = window_heuristic_name(options_);
    result.cancelled = res.stopped;
    result.evaluations = res.windows_optimized;
    if (res.stopped) {
      result.detail = "deadline/cancellation: tail scheduled in submission "
                      "order after " +
                      std::to_string(res.windows_optimized) +
                      " optimized windows";
    }
    return result;
  }

 private:
  WindowOptions options_;
};

WindowOptions parse_window_spec(const SolverSpec& spec) {
  WindowOptions options;
  options.window = spec.size_arg(0, options.window);
  if (spec.args.size() > 1) {
    const std::string& mode = spec.args[1];
    if (mode == "pair") {
      options.mode = WindowMode::kPairOrder;
    } else if (mode == "common") {
      options.mode = WindowMode::kCommonOrder;
    } else {
      throw std::invalid_argument("solver '" + spec.full +
                                  "': unknown window mode '" + mode +
                                  "' (use common or pair)");
    }
  }
  return options;
}

}  // namespace

namespace detail {

void register_builtin_solvers(SolverRegistry& registry) {
  for (const HeuristicInfo& h : all_heuristics()) {
    registry.add(std::string(h.name), "", std::string(h.description),
                 {.batch = true, .dag = true}, [id = h.id](const SolverSpec&) {
                   return std::make_unique<HeuristicSolver>(id);
                 });
  }
  registry.add(
      "auto", "[:all|baseline|static|dynamic|corrected]",
      "evaluate every candidate heuristic, keep the best schedule",
      {.batch = true, .dag = true}, [](const SolverSpec& spec) {
        return std::make_unique<AutoSolver>(candidates_for(spec, 0),
                                            std::nullopt);
      });
  registry.add(
      "auto-batch", "[:BATCH]",
      "auto-selecting batch runtime: per batch, commit the candidate "
      "finishing earliest (default batch 16)",
      {.batch = true, .dag = true}, [](const SolverSpec& spec) {
        return std::make_unique<AutoSolver>(all_heuristic_ids(),
                                            spec.size_arg(0, 16));
      });
  registry.add("local-search", "",
               "hill climbing over orders, seeded with the best heuristic",
               {.batch = false, .dag = true}, [](const SolverSpec&) {
                 return std::make_unique<LocalSearchSolver>();
               });
  registry.add("duplex-balance", "",
               "per-channel Johnson orders merged by least committed "
               "engine load (duplex-aware static order)",
               {.batch = false, .dag = true}, [](const SolverSpec&) {
                 return std::make_unique<DuplexBalanceSolver>();
               });
  registry.add("branch-bound", "[:MAX_N]",
               "exact search over independent transfer/comp order pairs, "
               "per-channel orders included (the MILP's space; default "
               "max n = 7)",
               {.batch = false, .dag = true}, [](const SolverSpec& spec) {
                 return std::make_unique<BranchBoundSolver>(
                     spec.size_arg(0, PairOrderOptions{}.max_n));
               });
  registry.add("milp", "[:T]",
               "self-contained 0-1 MILP: LP-relaxation branch-and-bound "
               "over the paper's order binaries, engine-scored leaves; "
               ":T solves against a T-step grid bound model",
               {.batch = false, .dag = false}, [](const SolverSpec& spec) {
                 return std::make_unique<MilpSolver>(
                     spec.args.empty() ? 0 : spec.size_arg(0, 0));
               });
  registry.add("exhaustive", "[:MAX_N]",
               "exact search over permutation schedules (default max n = 10)",
               {.batch = false, .dag = true}, [](const SolverSpec& spec) {
                 return std::make_unique<ExhaustiveSolver>(
                     spec.size_arg(0, ExhaustiveOptions{}.max_n));
               });
  registry.add("window", "[:K[:common|pair]]",
               "iterative window optimization, the paper's lp.k (default k=4)",
               {.batch = false, .dag = true}, [](const SolverSpec& spec) {
                 return std::make_unique<WindowedSolver>(
                     parse_window_spec(spec));
               });
}

}  // namespace detail

}  // namespace dts
