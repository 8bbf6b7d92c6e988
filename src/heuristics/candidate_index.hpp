#pragma once

/// \file candidate_index.hpp
/// Indexed candidate selection for the dynamic (§4.2) and corrected (§4.3)
/// heuristics: each pick returns *exactly* the task the linear
/// `pick_candidate` scan over the eligible pending tasks that fit would
/// return, floors included, in O(log n + |F|) instead of O(n).
///
/// Eligibility. A task is eligible once every predecessor is scheduled
/// (in this run, or in `out` by an earlier batch); its floor r is the
/// latest predecessor computation end (0 without predecessors). An
/// eligible task whose floor is at most its channel's start
/// max(now, clock_c) would start exactly there, like an independent task,
/// so it is a leaf of its channel's tree below. An eligible task with a
/// later floor waits in a short list F, scanned whole by each pick, until
/// max(now, clock_c) reaches r (both only grow). On a dependency-free
/// instance every task is a leaf from construction and F stays empty.
///
/// Why one sorted index suffices. For a leaf on channel c, the induced
/// idle is max(0, max(now, clock_c) + comm - processor-free),
/// which is non-decreasing in `comm` under the engine's exact operation
/// order; `Engine::fits` is monotone in the footprint. So the
/// tasks of each channel are laid out as slots sorted by `comm` (equal
/// `comm` by scan position: descending for LCMR, ascending for SCMR and
/// MAMR) under a segment tree that stores, per node, the count of leaves
/// and their minimum footprint (plus, for MAMR, the best leaf
/// (acceleration, -position)). One pick:
///
///  1. f0 = leftmost fitting leaf of each channel, m_c = its idle,
///     m = min of the m_c and of the fitting F tasks' idles. Nothing fits
///     anywhere: return npos.
///  2. Each channel's tasks idling exactly m form the slot range
///     [f0, end), found by binary search over the static `comm` array.
///  3. Exactness guard: the next larger fitting idle (the first fitting
///     slot after `end`, m_c on a channel with m_c != m, or an F task's)
///     must be definitely greater than m — the scan's own
///     `definitely_less`. Then the sequential scan provably ends on the
///     best-criterion, earliest-position task among those idling exactly
///     m, and:
///  4. SCMR takes f0; LCMR the rightmost fitting slot in [f0, end); MAMR
///     the best (acceleration, -position) fitting slot in [f0, end), found
///     by a pruned descent. Channel winners and the F tasks idling m
///     combine by criterion, then position.
///  5. Near-tie fallback (the guard failed): the tie cluster grows from m,
///     absorbing the next larger fitting idle while it is tolerance-tied
///     with the cluster's top. Every fitting task outside the cluster then
///     idles definitely more than every task inside it, so the linear
///     `pick_candidate` scan over the cluster alone (its F tasks
///     included), in position order, returns what the scan over all
///     fitting tasks would.
///
/// A pick costs O(log n) per channel plus O(|F|) (plus O(k log n) for a
/// fallback cluster of k tasks); building the index costs O((n + e) log n)
/// for a run of n tasks with e predecessor edges, whatever the size of
/// the instance they belong to.
///
/// Under DTS_AUDIT every indexed pick is cross-checked against the linear
/// scan over the same eligible fitting set.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/compiled.hpp"
#include "heuristics/dynamic.hpp"

namespace dts {

class CandidateIndex {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Indexes every task of `order` (ids into `ci`, no repeats, none
  /// scheduled yet) as pending; start() records their starts in `out`,
  /// where predecessors outside `order` are looked up. A task's scan
  /// position is its index in `order`; the linear scan this index
  /// reproduces visits pending tasks in that order.
  CandidateIndex(const CompiledInstance& ci, std::span<const TaskId> order,
                 DynamicCriterion criterion, Schedule& out);

  [[nodiscard]] bool empty() const noexcept { return pending_ == 0; }

  /// Position of the earliest pending task (npos when empty); amortized
  /// O(1) over a run.
  [[nodiscard]] std::size_t head() noexcept;

  /// Whether every predecessor of the pending task at `pos` is scheduled.
  [[nodiscard]] bool eligible(std::size_t pos) const noexcept {
    return waiting_[pos] == 0;
  }

  /// Position of the pending task `pick_candidate` would choose among the
  /// eligible pending tasks that fit `engine`, scanned in position order
  /// with their floors; npos when nothing fits.
  [[nodiscard]] std::size_t pick(const Engine& engine);

  /// Starts the eligible task at `pos` on `engine` at its floor, records
  /// it in `out` and removes it from the pending set; successors whose
  /// last predecessor it was become eligible.
  void start(std::size_t pos, Engine& engine);

  /// The step when pick() finds nothing: advances `engine` to the next
  /// release. Throws std::invalid_argument, naming `who`, when no pending
  /// task is eligible (a predecessor outside this run was never
  /// scheduled) or nothing is in flight (a pending task exceeds the
  /// memory capacity).
  void wait(const char* who, Engine& engine) const;

  [[nodiscard]] const SelectionStats& stats() const noexcept { return stats_; }

 private:
  /// One segment tree per channel over that channel's slots
  /// [first, first + n) of the global slot arrays; node k (1-based) of the
  /// tree lives at node_base + k, leaf i at node_base + leaves + i.
  struct Tree {
    std::size_t first = 0;
    std::size_t n = 0;
    std::size_t leaves = 0;
    std::size_t node_base = 0;
    ChannelId channel = 0;
  };
  /// Per-channel state of the pick in progress.
  struct Probe {
    std::size_t f0 = npos;  ///< leftmost fitting slot (global), npos: none
    std::size_t end = 0;    ///< one past the cluster's last slot (global)
    Time start = 0.0;       ///< max(now, channel clock)
    Time idle = 0.0;        ///< idle of f0
  };

  /// Builds the successor lists and waiting counts of a DAG run.
  void link(const Schedule& out);
  /// Makes the slot of `pos` a leaf (or, `on` false, empties it) and
  /// updates its ancestors; a no-op when it already is (or is not).
  void set_leaf(std::size_t pos, bool on) noexcept;
  /// Moves the F tasks whose floor their channel's start has reached
  /// into their trees and drops those started from F since.
  void promote(const Engine& engine);
  /// Induced idle of the F task at `pos`, whose transfer would start at
  /// its floor; kInfiniteTime when it does not fit.
  [[nodiscard]] Time floored_idle(std::size_t pos, const Engine& engine) const;
  /// Lowers `next` (valid when `have`) to the least fitting F idle above
  /// `above`.
  void floored_next(Time above, const Engine& engine, bool& have, Time& next);
  [[nodiscard]] bool has_fit(std::size_t node,
                             const Engine& engine) const noexcept;
  [[nodiscard]] bool better(std::size_t a, std::size_t b) const noexcept;
  [[nodiscard]] bool acc_better(std::size_t a, std::size_t b) const noexcept;
  void pull(const Tree& t, std::size_t k) noexcept;
  /// Descents below node k of `t`, which covers local slots [lo, hi):
  /// the leftmost fitting slot at or after local slot `from`, the
  /// rightmost fitting slot in local [from, to), and the best fitting
  /// (acceleration, -position) slot in local [from, to) improving on
  /// `best`. Results are global slots (npos: none).
  [[nodiscard]] std::size_t first_fit(const Tree& t, std::size_t k,
                                      std::size_t lo, std::size_t hi,
                                      std::size_t from,
                                      const Engine& engine) noexcept;
  [[nodiscard]] std::size_t last_fit(const Tree& t, std::size_t k,
                                     std::size_t lo, std::size_t hi,
                                     std::size_t from, std::size_t to,
                                     const Engine& engine) noexcept;
  void best_fit(const Tree& t, std::size_t k, std::size_t lo, std::size_t hi,
                std::size_t from, std::size_t to, const Engine& engine,
                std::size_t& best) noexcept;
  /// Appends the positions of the fitting slots in local [from, to) to
  /// fitting_pos_.
  void collect(const Tree& t, std::size_t k, std::size_t lo, std::size_t hi,
               std::size_t from, std::size_t to, const Engine& engine);
  /// One past the last global slot in [p.f0, end) whose idle is at most
  /// `bound` (binary search over the static comm array, along which idle
  /// is non-decreasing).
  [[nodiscard]] std::size_t idle_end(const Probe& p, std::size_t end,
                                     Time bound, Time comp_avail) noexcept;
  /// The near-tie fallback: the linear scan over the tie cluster, the
  /// fitting tasks idling at most `bound`.
  [[nodiscard]] std::size_t fallback(const Engine& engine, Time bound);
  /// pick_candidate over the tasks at fitting_pos_, with their floors, as
  /// a position.
  [[nodiscard]] std::size_t chosen_position(const Engine& engine);
  /// The linear scan over every eligible pending fitting task (the audit
  /// reference).
  [[nodiscard]] std::size_t scan(const Engine& engine);

  const CompiledInstance* ci_;
  std::span<const TaskId> order_;
  DynamicCriterion criterion_;
  Schedule* out_;

  std::vector<std::uint32_t> slot_of_;  ///< position -> global slot
  std::vector<std::uint32_t> pos_of_;   ///< global slot -> position
  std::vector<Time> comm_;              ///< per global slot
  std::vector<Mem> mem_;                ///< per global slot
  std::vector<Time> acc_;               ///< per global slot, MAMR only
  /// Per position: predecessors not scheduled yet (one more per
  /// predecessor outside the run that is not in `out`); kStarted once
  /// the task itself started.
  std::vector<std::uint32_t> waiting_;
  std::vector<Time> floor_;  ///< per position: latest predecessor end
  /// Per position p: its successors in the run are
  /// succ_[succ_first_[p] .. succ_first_[p + 1]) (empty without edges).
  std::vector<std::uint32_t> succ_first_;
  std::vector<std::uint32_t> succ_;
  std::vector<std::uint32_t> floored_;  ///< F: eligible, floor above start
  /// The first task waiting on a predecessor outside the run that was
  /// never scheduled, and that predecessor (wait()'s error).
  TaskId unready_task_ = kInvalidTask;
  TaskId unready_dep_ = kInvalidTask;

  std::vector<Tree> trees_;  ///< indexed by channel
  std::vector<Probe> probes_;
  std::vector<std::uint32_t> count_;  ///< leaves below a node
  std::vector<Mem> min_mem_;          ///< smallest leaf footprint
  std::vector<std::uint32_t> best_;   ///< best leaf slot, MAMR only

  std::vector<TaskId> fitting_;          ///< fallback scan buffers
  std::vector<std::size_t> fitting_pos_;
  std::vector<Time> fitting_floor_;

  std::size_t head_ = 0;
  std::size_t pending_ = 0;
  SelectionStats stats_;
};

}  // namespace dts
