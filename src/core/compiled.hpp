#pragma once

/// \file compiled.hpp
/// The library's timing engine for problem DT and its multi-channel
/// generalization, plus the data-oriented structures every scheduler
/// drives it through.
///
/// The engine models the machine's copy engines (one availability clock
/// per channel — the paper's system is the one-channel case), one
/// processing unit, and the bounded memory of the target node. Every
/// scheduler in the library — static orders, LCMR/SCMR/MAMR and their
/// corrections, batch runtimes, local search and the exact searches —
/// drives this one engine, so they share identical timing semantics:
///
///  * a transfer may start at time t only if the memory still held by
///    tasks whose transfer started and whose computation has not finished
///    (half-open intervals) leaves room for the new task;
///  * a transfer starts at the earliest instant >= the current decision
///    instant at which its own channel is free; transfers on distinct
///    channels overlap, transfers sharing a channel serialize;
///  * SCOMP(i) = max(SCOMM(i) + CM_i, processor-free time) — computations
///    are served in the order they are issued to the engine;
///  * when nothing fits, time advances to the next computation-finish
///    event (the only instants at which memory is released). Memory is
///    released at its exact computation-end instant, so a transfer
///    admitted on freed memory never starts before the release; the
///    footprint check itself compares through support/tolerance.hpp,
///    the comparisons validate_schedule uses.
///
/// With a single channel these rules reproduce the paper's worked
/// schedules (Figs. 4-6) exactly; see tests/paper_examples_test.cpp. An
/// independent per-task oracle written from these rules
/// (tests/test_util.hpp) pins the engine in tests/fast_path_parity_test.cpp.
///
/// This header provides:
///
///  * `CompiledInstance` — a structure-of-arrays compilation of an
///    `Instance`: contiguous `comm[]`, `comp[]`, `mem[]`, `channel[]`
///    arrays (no per-task `std::string` name pulling cold bytes through
///    the cache) plus per-channel task index lists. Built once, shared by
///    every candidate evaluation.
///  * `Engine` — the engine state with a step API (`fits`, `start`,
///    `advance_to_next_release`, `snapshot`) that the list schedulers
///    drive one decision at a time, and `issue_in_order`, the same steps
///    over a fixed order on a live engine (the static heuristics).
///    Buffers persist across resets, so a warm engine runs with zero heap
///    allocation.
///  * `evaluate_order()` — the admission loop around the same `start`
///    step for a fixed order: the makespan without building a `Schedule`
///    (the inner kernel of local search, batch-auto trials and the exact
///    searches), or, in its recording overload, the full schedule.
///    `simulate_order`/`makespan_of_order` (simulate.hpp) wrap it.
///  * `PrefixResumeEvaluator` — caches the engine state after every
///    prefix of a reference order so that candidates sharing a prefix
///    (local-search adjacent swaps, `next_permutation` scans in the
///    exact searches) resimulate only the suffix.

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/instance.hpp"
#include "core/schedule.hpp"
#include "support/tolerance.hpp"

namespace dts {

/// Structure-of-arrays view of an `Instance`, built once and shared by
/// all candidate evaluations. Tasks keep their ids (array index == id).
class CompiledInstance {
 public:
  CompiledInstance() = default;
  explicit CompiledInstance(const Instance& inst);

  [[nodiscard]] std::size_t size() const noexcept { return comm_.size(); }
  [[nodiscard]] bool empty() const noexcept { return comm_.empty(); }
  [[nodiscard]] std::size_t num_channels() const noexcept {
    return n_channels_;
  }
  /// Largest single-task footprint (the instance's mc).
  [[nodiscard]] Mem min_capacity() const noexcept { return min_capacity_; }

  [[nodiscard]] Time comm(TaskId id) const noexcept { return comm_[id]; }
  [[nodiscard]] Time comp(TaskId id) const noexcept { return comp_[id]; }
  [[nodiscard]] Mem mem(TaskId id) const noexcept { return mem_[id]; }
  [[nodiscard]] ChannelId channel(TaskId id) const noexcept {
    return channel_[id];
  }
  /// CP_i / CM_i with the same zero-communication convention as
  /// Task::acceleration (a free transfer is infinitely accelerated).
  [[nodiscard]] Time acceleration(TaskId id) const noexcept {
    if (comm_[id] <= 0.0) return kInfiniteTime;
    return comp_[id] / comm_[id];
  }

  /// Ids of the tasks whose transfer runs on `ch`, in submission order
  /// (same contents as Instance::tasks_on_channel, zero-allocation view).
  [[nodiscard]] std::span<const TaskId> tasks_on_channel(ChannelId ch) const;

  /// True when the source instance carries dependency edges; every DAG
  /// branch of the hot loop is gated on this, so edge-free instances take
  /// exactly the original operation sequence.
  [[nodiscard]] bool has_dependencies() const noexcept {
    return has_dependencies_;
  }

  /// Predecessor ids of `id` (empty for precedence-free tasks) as a CSR
  /// view — the compiled mirror of Task::deps.
  [[nodiscard]] std::span<const TaskId> deps(TaskId id) const noexcept {
    return std::span<const TaskId>(dep_edges_)
        .subspan(dep_offsets_[id], dep_offsets_[id + 1] - dep_offsets_[id]);
  }

 private:
  std::vector<Time> comm_;
  std::vector<Time> comp_;
  std::vector<Mem> mem_;
  std::vector<ChannelId> channel_;
  /// Per-channel task index lists: channel `ch` owns
  /// channel_tasks_[channel_offsets_[ch] .. channel_offsets_[ch + 1]).
  std::vector<TaskId> channel_tasks_;
  std::vector<std::size_t> channel_offsets_;
  /// Dependency edges, CSR over task ids: task `id` owns
  /// dep_edges_[dep_offsets_[id] .. dep_offsets_[id + 1]).
  std::vector<TaskId> dep_edges_;
  std::vector<std::size_t> dep_offsets_;
  std::size_t n_channels_ = 1;
  Mem min_capacity_ = 0.0;
  bool has_dependencies_ = false;
};

class PrefixResumeEvaluator;

/// The timing engine: clocks, the in-flight memory and the decision
/// instant, over the arrays of one `CompiledInstance`. Decision instants
/// only move forward. A list scheduler steps it one task at a time:
///
///   Engine engine(ci, capacity);
///   while (!engine.fits(ci.mem(id))) engine.advance_to_next_release();
///   const TaskTimes tt = engine.start(id, ready);
///
/// The engine keeps a pointer to the instance it was reset on, which must
/// outlive it. Batch schedulers carry one engine (or its snapshot) across
/// rounds to model a runtime that keeps issuing work.
class Engine {
 public:
  /// Value snapshot of the engine: per-channel availability plus the
  /// (comp-end, memory) pairs of in-flight tasks. Batch runtimes and the
  /// window solver carry it from round to round; the pair-order branch &
  /// bound starts mid-stream from one.
  struct Snapshot {
    /// One clock per channel; a default snapshot is a fresh single link.
    std::vector<Time> comm_available = {0.0};
    Time comp_available = 0.0;
    std::vector<std::pair<Time, Mem>> active;  ///< comp end, held memory
    /// Decision instant at capture. Restoring resumes from
    /// max(now, earliest channel clock): with one channel the last
    /// transfer's end always equals the decision instant, but with
    /// several channels an idle engine's clock can trail it — resuming
    /// from the trailing clock alone would issue transfers in the past,
    /// where memory this snapshot no longer tracks was still held
    /// (found by tests/differential_test.cpp).
    Time now = 0.0;
  };

  Engine() = default;
  /// Fresh or restored engine; see reset().
  Engine(const CompiledInstance& ci, Mem capacity,
         const Snapshot* initial = nullptr) {
    reset(ci, capacity, initial);
  }
  /// The engine keeps a pointer to its instance: a temporary would dangle.
  Engine(CompiledInstance&&, Mem, const Snapshot* = nullptr) = delete;

  /// Rebuilds the engine over `ci`: fresh clocks (one per channel of
  /// `ci`, all idle at time 0), or a carried snapshot. A restored engine
  /// has the snapshot's channel count, resumes at max(captured instant,
  /// earliest free channel), and drops entries whose computation already
  /// finished; restoring costs O(in-flight tasks), not O(n). `ready`
  /// (optional, per task id of `ci`) floors each transfer evaluate_order
  /// issues at an externally known instant — the window solver passes
  /// predecessor completion times from earlier windows. Capacity may be
  /// kInfiniteMem. Throws std::invalid_argument for a negative capacity,
  /// a snapshot without clocks or with a negative clock.
  void reset(const CompiledInstance& ci, Mem capacity,
             const Snapshot* initial = nullptr,
             std::span<const Time> ready = {});
  void reset(CompiledInstance&&, Mem, const Snapshot* = nullptr,
             std::span<const Time> = {}) = delete;

  /// The current decision instant (never decreases): the earliest instant
  /// at which a new transfer could still be issued.
  [[nodiscard]] Time now() const noexcept { return state_.now; }
  [[nodiscard]] std::size_t num_channels() const noexcept {
    return state_.comm_avail.size();
  }
  /// Instant at which channel `ch` is free for the next transfer; throws
  /// std::out_of_range for a channel the engine does not track.
  [[nodiscard]] Time comm_available(ChannelId ch) const;
  /// Instant at which *every* channel is free (the max clock) — for a
  /// single channel the link clock of the original model, the value batch
  /// runtimes and exact searches tie-break on.
  [[nodiscard]] Time comm_available() const noexcept;
  [[nodiscard]] Time comp_available() const noexcept {
    return state_.comp_avail;
  }
  [[nodiscard]] Mem capacity() const noexcept { return capacity_; }
  /// Memory held at the current instant by tasks still owning their input.
  [[nodiscard]] Mem used_memory() const noexcept { return state_.used; }
  /// Tasks whose transfer started but whose computation has not finished
  /// at the current instant.
  [[nodiscard]] std::size_t active_tasks() const noexcept {
    return state_.active.size();
  }
  /// End of the last computation started since reset (0 before any).
  /// Computation ends are monotone along the issue order, so this is the
  /// makespan of the issued tasks.
  [[nodiscard]] Time makespan() const noexcept { return state_.makespan; }

  /// Would a task of footprint `mem` fit if its transfer started now?
  // dts-lint: hot-path
  [[nodiscard]] bool fits(Mem mem) const noexcept {
    return approx_leq(state_.used + mem, capacity_);
  }

  /// Starts the transfer of task `id` (of the instance the engine was
  /// reset on) at max(now, its channel's clock, `ready`) and queues its
  /// computation; `ready` is the latest predecessor computation end (0
  /// without predecessors). Memory finishing in the waited gap is
  /// released before the footprint check. Advances the decision instant
  /// to the earliest instant any channel is free again. Throws
  /// std::logic_error when the task does not fit, std::out_of_range for
  /// an unknown task or channel.
  TaskTimes start(TaskId id, Time ready = 0.0);

  /// Advances the decision instant to the next computation-finish event,
  /// releasing its memory. Returns false (and leaves time unchanged) when
  /// no task is in flight.
  bool advance_to_next_release();

  /// Steps `order` verbatim from the current state, each task waiting for
  /// memory and for its predecessors' computation ends as recorded in
  /// `sched`, and records each start there: a static order on a live
  /// engine, whose earlier tasks (a previous batch) share `sched`. Throws
  /// std::invalid_argument when a task can never fit or a predecessor is
  /// not in `sched` yet.
  void issue_in_order(std::span<const TaskId> order, Schedule& sched);

  /// The engine state as a value; reset(ci, capacity, &snap) restores it.
  [[nodiscard]] Snapshot snapshot() const;

 private:
  friend class PrefixResumeEvaluator;
  friend Time evaluate_order(const CompiledInstance& ci,
                             std::span<const TaskId> order, Mem capacity,
                             Engine& engine, const Snapshot* initial,
                             std::span<const Time> ready);
  friend Time evaluate_order(const CompiledInstance& ci,
                             std::span<const TaskId> order, Mem capacity,
                             Engine& engine, Schedule& out,
                             const Snapshot* initial,
                             std::span<const Time> ready);

  struct Active {
    Time comp_end;
    Mem mem;
    /// Min-heap on comp_end.
    [[nodiscard]] bool operator>(const Active& o) const noexcept {
      return comp_end > o.comp_end;
    }
    bool operator==(const Active&) const = default;
  };

  /// Restores clocks and the in-flight set from `snap`.
  void load(const Snapshot& snap);
  /// The admission loop: issues order[first..last) in order, each task
  /// waiting for memory, its predecessors' recorded computation ends and
  /// its external floor, then taking the start() step. `record` is null
  /// on the scoring path.
  void issue(std::span<const TaskId> order, std::size_t first,
             std::size_t last, Schedule* record);
  /// Builds issue()'s dependency table if a reset left it stale.
  void prepare_deps();
  void release_until(Time t);

  /// Everything that evolves as tasks start. PrefixResumeEvaluator
  /// checkpoints it by value and merges a candidate back onto its
  /// reference when the two compare equal, member by member in this
  /// order (the processor clock first: a move's perturbation lingers
  /// there longest). The active set compares as a raw array, since its
  /// heap layout drives release order.
  struct State {
    Time comp_avail = 0.0;
    Time now = 0.0;
    /// End of the last computation started (see makespan()).
    Time makespan = 0.0;
    Mem used = 0.0;
    std::vector<Time> comm_avail;  // one availability clock per channel
    std::vector<Active> active;    // binary min-heap via std::*_heap
    /// DAG support for issue(), inert (empty) on edge-free instances:
    /// each task issue() starts records its computation end here (-1 =
    /// not issued) and a transfer waits for every predecessor's end.
    std::vector<Time> comp_end;
    bool operator==(const State&) const = default;
  };

  const CompiledInstance* ci_ = nullptr;
  Mem capacity_ = 0.0;
  State state_;
  /// state_.comp_end is built on the first issue() after a reset
  /// (deps_stale_), so step-API callers, which pass `ready` themselves,
  /// never pay for it. external_ready_ (possibly empty) carries
  /// cross-window floors per task id.
  bool track_deps_ = false;
  bool deps_stale_ = false;
  std::vector<Time> external_ready_;
};

/// Former name of Engine, kept so callers written against it still build.
using EvalScratch = Engine;

/// Makespan of `order` (ids into `ci`), bit-identical to
/// `simulate_order(inst, order, capacity).makespan(inst)` but without
/// constructing a Schedule and without heap allocation once `engine` is
/// warm. `initial` (optional) carries a previous engine state (see
/// Engine::reset). Unlike simulate_order, the order may cover any subset
/// of the instance (the exact searches score window suffixes). Throws
/// std::invalid_argument when capacity is negative or a task can never
/// fit, std::out_of_range for an unknown task or channel.
/// `ready` (optional, indexed by task id) floors each transfer start at an
/// externally known instant — cross-window predecessor completion times.
/// On a DAG instance the engine additionally enforces the instance's own
/// edges: a transfer waits for every predecessor's computation end, and
/// issuing a task before its predecessor throws std::invalid_argument.
[[nodiscard]] Time evaluate_order(const CompiledInstance& ci,
                                  std::span<const TaskId> order, Mem capacity,
                                  Engine& engine,
                                  const Engine::Snapshot* initial = nullptr,
                                  std::span<const Time> ready = {});

/// Recording overload: additionally writes each issued task's start times
/// into `out`.
Time evaluate_order(const CompiledInstance& ci, std::span<const TaskId> order,
                    Mem capacity, Engine& engine, Schedule& out,
                    const Engine::Snapshot* initial = nullptr,
                    std::span<const Time> ready = {});

/// Candidate scorer that caches the engine state after every prefix of a
/// reference order, so evaluating a candidate resimulates only the part
/// after its longest common prefix with the reference:
///
///   PrefixResumeEvaluator eval(ci, capacity);
///   Time best = eval.set_reference(order);        // full simulation
///   Time ms = eval.evaluate(adjacent_swap);       // suffix only
///   best = eval.set_reference(improved_order);    // re-checkpoints the
///                                                 // changed suffix only
///
/// `set_reference` itself resumes from the previous reference's common
/// prefix, which makes `next_permutation` scans (exhaustive search,
/// branch-and-bound child expansions) nearly O(1) per permutation on
/// average. Results are bit-identical to from-scratch evaluation: a
/// checkpoint is a complete value copy of the engine (including the heap
/// layout of the active set), so the resumed suffix performs exactly the
/// operations a full rerun would.
class PrefixResumeEvaluator {
 public:
  PrefixResumeEvaluator(const CompiledInstance& ci, Mem capacity);
  /// Carried-state variant: every evaluation starts from `initial`
  /// exactly as Engine::reset(ci, capacity, &initial) would.
  PrefixResumeEvaluator(const CompiledInstance& ci, Mem capacity,
                        const Engine::Snapshot& initial);

  /// Installs per-task external transfer-start floors (cross-window
  /// predecessor completion times; see evaluate_order). Resets the base
  /// state and drops the current reference — call before set_reference.
  void set_external_ready(std::span<const Time> ready);

  /// Full-accuracy makespan of `order`; records checkpoints so later
  /// calls resume after the common prefix. On failure (a task that can
  /// never fit) the reference is invalidated and the exception rethrown.
  Time set_reference(std::span<const TaskId> order);

  /// Makespan of `order`, resuming from the checkpoint at its longest
  /// common prefix with the current reference. When the candidate also
  /// shares a suffix with the reference (local-search swaps do), the
  /// engine additionally *reconverges*: after the divergent window it
  /// compares its state to the reference checkpoint at each position and
  /// returns the reference's final makespan the moment they bitwise
  /// match, since the remaining evolution is then identical. Does not
  /// move the reference — ideal for scoring a neighborhood around it.
  [[nodiscard]] Time evaluate(std::span<const TaskId> order);

  /// The order checkpoints are recorded for (empty until the first
  /// successful set_reference).
  [[nodiscard]] std::span<const TaskId> reference() const noexcept {
    return reference_;
  }

  /// State of the engine after the most recent set_reference/evaluate.
  [[nodiscard]] const Engine& last_state() const noexcept {
    return engine_;
  }

  /// Instrumentation: candidate evaluations served, tasks actually
  /// simulated, and tasks skipped by resuming from a checkpoint.
  [[nodiscard]] std::uint64_t evaluations() const noexcept {
    return evaluations_;
  }
  [[nodiscard]] std::uint64_t tasks_simulated() const noexcept {
    return tasks_simulated_;
  }
  [[nodiscard]] std::uint64_t tasks_resumed() const noexcept {
    return tasks_resumed_;
  }

 private:
  void save_checkpoint(std::size_t k);
  void load_checkpoint(std::size_t k);
  [[nodiscard]] std::size_t common_prefix(
      std::span<const TaskId> order) const noexcept;

  const CompiledInstance* ci_;
  Mem capacity_;
  bool has_initial_ = false;
  Engine::Snapshot initial_;
  std::vector<Time> ready_;  ///< external transfer-start floors (may be empty)
  Engine engine_;
  std::vector<TaskId> reference_;
  /// [k] = the engine state after k tasks of the reference, by value.
  /// Copy-assignment reuses the buffers, so steady-state checkpointing
  /// does not allocate.
  std::vector<Engine::State> checkpoints_;
  std::uint64_t evaluations_ = 0;
  std::uint64_t tasks_simulated_ = 0;
  std::uint64_t tasks_resumed_ = 0;
};

}  // namespace dts
