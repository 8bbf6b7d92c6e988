#pragma once

/// \file solver.hpp
/// The unified solving surface of the library — the "runtime system
/// exposing different heuristics and automatically selecting the best one"
/// the paper's conclusion sketches, as one API.
///
/// A SolveRequest (instance + capacity + optional batch visibility) goes
/// through dts::solve(request, "name", options) to a polymorphic Solver
/// resolved from a string-keyed registry. Every strategy of the library is
/// registered: the 14 paper heuristics by acronym ("OS" ... "OOMAMR"), the
/// auto-scheduler ("auto", "auto:static"), the batch-auto runtime
/// ("auto-batch:16"), local search ("local-search"), the exact solvers
/// ("branch-bound", "exhaustive") and the iterative window heuristic
/// ("window:4"). New strategies plug in by registering a factory — no enum
/// edits, no new entry points:
///
///   namespace { const dts::RegisterSolver reg{
///       "my-solver", "", "one-line description",
///       dts::SolverTraits{.batch = false, .dag = true},
///       [](const dts::SolverSpec&) { return std::make_unique<MySolver>(); }}; }
///
/// Every registration declares what the solver accepts, as data beside
/// its factory: the `params` usage string defines how many ':' arguments
/// the name may carry (one per ':', so "[:K[:common|pair]]" allows two),
/// and SolverTraits (below) whether it honors a batch window and
/// dependency edges. The registry and solve() enforce these declarations
/// in one place, before the solver runs, so no adapter re-checks them;
/// `dts solvers` and the differential suite read the same declarations.
///
/// Names are parameterized with ':' — "auto-batch:16" is the base key
/// "auto-batch" with argument "16". The registered solvers are thin
/// adapters (solvers_builtin.cpp): what each paper heuristic computes and
/// the auto fold live in core/registry.hpp, the batch runtimes in
/// core/batch.hpp, and solve() returns exactly their schedules
/// (tests/solver_test.cpp).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "core/instance.hpp"
#include "core/schedule.hpp"
#include "exact/lower_bounds.hpp"
#include "model/machine.hpp"

namespace dts {

class Executor;  // job.hpp: fan-out interface implemented by SolverPool

/// Which hardware to solve for: unset (the instance's own measured
/// times), a MachineRegistry key resolved lazily at solve() time, or an
/// inline Machine descriptor used as-is. One sum type, one field on the
/// request, one resolution path — resolve() is the only place a name
/// becomes a Machine. Construction is implicit from both alternatives,
/// so `request.machine = "nvlink"` and `request.machine = my_machine`
/// both read naturally.
class MachineRef {
 public:
  MachineRef() = default;
  MachineRef(std::string name) : ref_(std::move(name)) {}      // NOLINT
  MachineRef(std::string_view name) : ref_(std::string(name)) {}  // NOLINT
  MachineRef(const char* name) : ref_(std::string(name)) {}    // NOLINT
  MachineRef(Machine model) : ref_(std::move(model)) {}        // NOLINT

  /// True when the request names any machine at all (either alternative).
  [[nodiscard]] explicit operator bool() const noexcept {
    return !std::holds_alternative<std::monostate>(ref_);
  }
  void reset() noexcept { ref_ = std::monostate{}; }

  /// The registry key, or nullptr when this ref is unset / a descriptor.
  [[nodiscard]] const std::string* name() const noexcept {
    return std::get_if<std::string>(&ref_);
  }
  /// The inline descriptor, or nullptr when this ref is unset / a name.
  [[nodiscard]] const Machine* model() const noexcept {
    return std::get_if<Machine>(&ref_);
  }

  /// The machine this ref denotes: a registry lookup for a name (throws
  /// std::invalid_argument for an unknown key, listing the available
  /// machines), the descriptor itself otherwise. Must not be called on an
  /// unset ref (throws std::logic_error).
  [[nodiscard]] Machine resolve() const;

 private:
  std::variant<std::monostate, std::string, Machine> ref_;
};

/// What to solve: an instance under a memory capacity, optionally through
/// the batched runtime (the solver only sees `batch_size` tasks at a time,
/// paper §6.3). solve() rejects a batch window aimed at a solver whose
/// SolverTraits do not declare `batch`.
///
/// The copy engines are implied by the instance (tasks' highest channel
/// id); single-channel requests follow the exact legacy semantics of the
/// paper's model.
///
/// `machine` parameterizes solving by hardware: solve() lazily binds the
/// instance (model/machine.hpp bind()) before running, re-costing every
/// byte-annotated task through the machine's per-channel TransferModels;
/// bind() rejects a request whose tasks name engines the machine does
/// not have. The MachineRef carries either a MachineRegistry name
/// (resolved at solve() time) or an inline descriptor (used as-is).
/// Without a machine, solve() rejects instances carrying time-less
/// (bytes-only) tasks — there is nothing to cost them with.
struct SolveRequest {
  Instance instance;
  Mem capacity = 0.0;
  std::optional<std::size_t> batch_size;
  MachineRef machine;  ///< registry name or inline descriptor (or unset)
};

/// Cooperative cancellation. A default-constructed token can never fire;
/// CancellationToken::source() creates one that can. Copies share the flag,
/// so a controller thread can cancel() while a solver polls cancelled().
class CancellationToken {
 public:
  CancellationToken() = default;

  /// A token whose cancel() actually cancels.
  [[nodiscard]] static CancellationToken source() {
    CancellationToken token;
    token.flag_ = std::make_shared<std::atomic<bool>>(false);
    return token;
  }

  /// Requests cancellation; no-op for a default-constructed token.
  void cancel() const noexcept {
    if (flag_) flag_->store(true, std::memory_order_relaxed);
  }

  [[nodiscard]] bool cancelled() const noexcept {
    return flag_ && flag_->load(std::memory_order_relaxed);
  }

  /// True when this token was created by source() (cancel() can fire).
  [[nodiscard]] bool cancellable() const noexcept { return flag_ != nullptr; }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// How to solve it. Every knob is optional; the defaults match the legacy
/// entry points so solve() is a drop-in replacement.
struct SolveOptions {
  /// Wall-clock budget measured from solver entry. Long-running solvers
  /// (the exact searches, window, local search) stop at the deadline and
  /// return their incumbent with SolveResult::cancelled set; one-shot
  /// heuristics ignore it (they finish in microseconds).
  std::optional<double> time_limit_seconds;
  /// Cooperative cancellation, same semantics as the deadline.
  CancellationToken cancel;
  /// Iteration budget for anytime solvers (local search candidates).
  std::size_t max_iterations = 20000;
  /// Stop local search after this many consecutive rejected candidates
  /// (LocalSearchOptions::max_no_improve).
  std::size_t max_no_improve = 2000;
  /// Seed for randomized solvers (local search neighborhood order).
  std::uint64_t seed = 1;
  /// Evaluate the independent candidates of auto and auto-batch
  /// concurrently: on `executor` when one is set, otherwise (whole-trace
  /// auto only) on a SolverPool the call starts for itself. The winner is
  /// identical either way (the reduction is deterministic); this only
  /// buys wall time.
  bool parallel_candidates = true;
  /// Optional fan-out surface (job.hpp) for solver-internal parallelism:
  /// auto/batch-auto candidate trials (still gated by
  /// parallel_candidates, which remains the on/off switch) and the
  /// exhaustive and window enumerations run their independent subtasks
  /// through it. SolverPool is the Executor, so a service can share one
  /// worker crew between whole jobs and their inner fan-out; pool jobs
  /// that leave this unset get the pool installed automatically. Null
  /// means the solver's built-in behavior: whole-trace auto starts a
  /// pool of its own, everything else runs serially. Results are
  /// identical either way.
  Executor* executor = nullptr;
  /// Fill SolveResult::bounds (OMIM + capacity-aware bounds). Sweeps that
  /// already track bounds per trace disable this to skip the recompute.
  bool compute_bounds = true;
};

/// The instant `seconds` after `now`, or nullopt when the steady clock
/// cannot represent it (an infinite budget, or one of ~292 years or
/// more): such a budget means no deadline. A negative budget has already
/// expired at `now`.
[[nodiscard]] inline std::optional<std::chrono::steady_clock::time_point>
deadline_after(std::chrono::steady_clock::time_point now, double seconds) {
  using Clock = std::chrono::steady_clock;
  const double ticks = std::chrono::duration<double, Clock::period>(
                           std::chrono::duration<double>(seconds))
                           .count();
  const auto room = (Clock::time_point::max() - now).count();
  if (!(ticks < static_cast<double>(room))) return std::nullopt;
  return now + Clock::duration(static_cast<Clock::rep>(std::max(ticks, 0.0)));
}

/// Deadline + cancellation token, bound at solver entry. Cheap to poll.
class StopCondition {
 public:
  explicit StopCondition(const SolveOptions& options)
      : cancel_(options.cancel) {
    if (options.time_limit_seconds) {
      deadline_ = deadline_after(std::chrono::steady_clock::now(),
                                 *options.time_limit_seconds);
    }
  }

  [[nodiscard]] bool stop_requested() const {
    if (cancel_.cancelled()) return true;
    return deadline_ && std::chrono::steady_clock::now() >= *deadline_;
  }

  /// True when stopping is possible at all — solvers skip the polling
  /// plumbing entirely otherwise.
  [[nodiscard]] bool armed() const noexcept {
    return deadline_.has_value() || cancel_.cancellable();
  }

 private:
  CancellationToken cancel_;
  std::optional<std::chrono::steady_clock::time_point> deadline_;
};

/// One candidate the solver considered. Auto solvers report every
/// heuristic's full-instance makespan; the batch-auto runtime reports how
/// many batches each candidate won instead (makespan stays infinite).
struct CandidateOutcome {
  std::string name;
  Time makespan = kInfiniteTime;
  std::size_t batch_wins = 0;
};

/// Everything a solve produced.
struct SolveResult {
  /// Name of the winning strategy: the heuristic acronym for single and
  /// auto solvers, the solver key otherwise (e.g. "lp.4", "branch-bound").
  std::string winner;
  Schedule schedule;
  Time makespan = kInfiniteTime;
  /// OMIM + capacity-aware lower bounds (exact/lower_bounds); filled by
  /// solve() unless options.compute_bounds is off.
  CapacityAwareBounds bounds;
  /// Wall-clock duration of the solver call, filled by solve().
  double wall_seconds = 0.0;
  /// The deadline or cancellation token fired; the schedule is the best
  /// incumbent found before stopping (always complete and feasible).
  bool cancelled = false;
  /// Candidate evaluations: schedules simulated (auto), local-search
  /// candidates, or branch-and-bound order pairs.
  std::uint64_t evaluations = 0;
  /// Per-candidate outcomes, in display order (auto and batch-auto).
  std::vector<CandidateOutcome> outcomes;
  /// Free-form solver note (e.g. local search's improvement summary).
  std::string detail;
  /// The solver *proved* this schedule optimal (exact solvers that
  /// finished their search or matched a proven bound). Heuristics never
  /// set it; a cancelled or budget-stopped exact search clears it.
  bool proved_optimal = false;
  /// Strongest makespan lower bound the solver itself established: the
  /// makespan when proved_optimal, a relaxation/capacity bound for a
  /// stopped exact search, 0 for solvers that prove nothing. Distinct
  /// from `bounds`, which solve() computes independently of the solver.
  Time lower_bound = 0.0;

  /// makespan / OMIM — the paper's quality metric (>= 1). Requires bounds.
  [[nodiscard]] double ratio_to_optimal() const noexcept {
    return bounds.omim <= 0.0 ? 1.0 : makespan / bounds.omim;
  }

  /// Relative optimality gap (makespan - lower_bound) / lower_bound:
  /// 0 when proved optimal, infinity when the solver proved no bound.
  [[nodiscard]] double optimality_gap() const noexcept {
    if (proved_optimal) return 0.0;
    if (lower_bound <= 0.0 || makespan == kInfiniteTime) {
      return std::numeric_limits<double>::infinity();
    }
    return (makespan - lower_bound) / lower_bound;
  }
};

/// A parsed solver name: "auto-batch:16" -> base "auto-batch", args
/// {"16"}. The base is the registry key; arguments are interpreted by the
/// factory.
struct SolverSpec {
  std::string full;
  std::string base;
  std::vector<std::string> args;

  /// Splits on ':'. Throws std::invalid_argument for an empty base.
  [[nodiscard]] static SolverSpec parse(std::string_view name);

  /// Positional argument as a positive integer; `fallback` when absent.
  /// Throws std::invalid_argument on a malformed or non-positive value.
  [[nodiscard]] std::size_t size_arg(std::size_t index,
                                     std::size_t fallback) const;
};

/// A scheduling strategy behind the unified surface. Implementations must
/// be safe to call concurrently from different threads on distinct
/// requests (all built-in solvers are pure functions of their inputs).
class Solver {
 public:
  virtual ~Solver() = default;

  /// Solves the request. Implementations fill winner, schedule, makespan,
  /// evaluations, outcomes, cancelled and detail; solve() adds bounds and
  /// wall time. The request already satisfies the solver's declared
  /// SolverTraits; other unsupported requests throw std::invalid_argument.
  [[nodiscard]] virtual SolveResult run(const SolveRequest& request,
                                        const SolveOptions& options) const = 0;
};

/// What a solver accepts, declared at its registration. solve() enforces
/// both fields centrally, so a declaration can never be silently ignored:
/// a DAG request to a solver without `dag` is rejected before the factory
/// runs, and a batch window to one without `batch` right after it.
struct SolverTraits {
  bool batch = false;  ///< honors SolveRequest::batch_size
  bool dag = true;     ///< enforces precedence edges (Task::deps)
};

/// One row of SolverRegistry::listings().
struct SolverListing {
  std::string name;         ///< registry key, e.g. "auto-batch"
  std::string params;       ///< accepted arguments, e.g. "[:BATCH]"
  std::string description;
  SolverTraits traits;
};

/// String-keyed factory registry. Factories self-register via the
/// RegisterSolver helper below (static objects); the built-in strategies
/// are registered on first access so a static-library link never loses
/// them.
class SolverRegistry {
 public:
  using Factory =
      std::function<std::unique_ptr<Solver>(const SolverSpec& spec)>;

  /// The process-wide registry.
  [[nodiscard]] static SolverRegistry& global();

  /// Registers a factory under `key`. Throws std::logic_error when the key
  /// is already taken or empty. `params` is the usage string of the ':'
  /// arguments, one ':' per argument the name may carry ("" for none);
  /// `traits` is what the solver accepts. Both are required at every site.
  void add(std::string key, std::string params, std::string description,
           SolverTraits traits, Factory factory);

  /// Instantiates the solver a (possibly parameterized) name refers to.
  /// Throws std::invalid_argument for an unknown base key — the message
  /// lists every available name —, for more arguments than the key's
  /// `params` declares (before the factory runs) or for factory-rejected
  /// arguments.
  [[nodiscard]] std::unique_ptr<Solver> make(std::string_view name) const;

  [[nodiscard]] bool contains(std::string_view key) const;

  /// Every registered solver, in registration order.
  [[nodiscard]] std::vector<SolverListing> listings() const;

  /// The declared traits of one base key (no ':' arguments), or nullopt
  /// for an unknown key.
  [[nodiscard]] std::optional<SolverTraits> traits(std::string_view key) const;

  /// Registered keys, in registration order (error messages, --list-solvers).
  [[nodiscard]] std::vector<std::string> keys() const;

 private:
  struct Entry {
    std::string key;
    std::string params;
    std::string description;
    SolverTraits traits;
    Factory factory;
  };
  std::vector<Entry> entries_;  // small; linear lookup, stable order
};

/// Self-registration helper: a namespace-scope `const RegisterSolver` in
/// any linked translation unit adds the factory before main() runs.
struct RegisterSolver {
  RegisterSolver(std::string key, std::string params, std::string description,
                 SolverTraits traits, SolverRegistry::Factory factory) {
    SolverRegistry::global().add(std::move(key), std::move(params),
                                 std::move(description), traits,
                                 std::move(factory));
  }
};

/// The single entry point: resolves `solver` in the global registry, runs
/// it, and fills in bounds, ratio and wall time. Throws
/// std::invalid_argument for unknown solvers, capacities below the
/// instance's minimum, requests outside the solver's declared traits or
/// arguments, or solver-rejected requests.
[[nodiscard]] SolveResult solve(const SolveRequest& request,
                                std::string_view solver = "auto",
                                const SolveOptions& options = {});

/// Listings of the global registry (CLI `--list-solvers`, error messages).
[[nodiscard]] std::vector<SolverListing> list_solvers();

}  // namespace dts
