#pragma once

/// \file candidate_index.hpp
/// Indexed candidate selection for the dynamic (§4.2) and corrected (§4.3)
/// heuristics on dependency-free instances: each pick returns *exactly*
/// the task the linear `pick_candidate` scan over the pending tasks that
/// fit would return, in O(log n) instead of O(n).
///
/// Why one sorted index suffices. For an independent task on channel c,
/// the induced idle is max(0, max(now, clock_c) + comm - processor-free),
/// which is non-decreasing in `comm` under the engine's exact operation
/// order; `Engine::fits` is monotone in the footprint. So the
/// tasks of each channel are laid out as slots sorted by `comm` (equal
/// `comm` by scan position: descending for LCMR, ascending for SCMR and
/// MAMR) under a segment tree that stores, per node, the pending count
/// and the minimum footprint (plus, for MAMR, the best pending
/// (acceleration, -position)). One pick:
///
///  1. f0 = leftmost fitting pending slot of each channel, m_c = its idle,
///     m = min_c m_c. Nothing fits anywhere: return npos.
///  2. Each channel's tasks idling exactly m form the slot range
///     [f0, end), found by binary search over the static `comm` array.
///  3. Exactness guard: the next larger fitting idle (the first fitting
///     slot after `end`, or m_c on a channel with m_c != m) must be
///     definitely greater than m — the scan's own `definitely_less`. Then
///     the sequential scan provably ends on the best-criterion,
///     earliest-position task among those idling exactly m, and:
///  4. SCMR takes f0; LCMR the rightmost fitting slot in [f0, end); MAMR
///     the best (acceleration, -position) fitting slot in [f0, end), found
///     by a pruned descent. Channel winners combine by criterion, then
///     position.
///  5. Near-tie fallback (the guard failed): the tie cluster grows from m,
///     absorbing the next larger fitting idle while it is tolerance-tied
///     with the cluster's top. Every fitting task outside the cluster then
///     idles definitely more than every task inside it, so the linear
///     `pick_candidate` scan over the cluster alone, in position order,
///     returns what the scan over all fitting tasks would.
///
/// A pick costs O(log n) per channel (plus O(k log n) for a fallback
/// cluster of k tasks); building the index costs O(n log n).
///
/// Under DTS_AUDIT every indexed pick is cross-checked against the linear
/// scan over the same fitting set.

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

  /// Indexes every task of `order` (ids into `ci`, no repeats) as pending.
  /// A task's scan position is its index in `order`; the linear scan this
  /// index reproduces visits pending tasks in that order.
  CandidateIndex(const CompiledInstance& ci, std::span<const TaskId> order,
                 DynamicCriterion criterion);

  [[nodiscard]] bool empty() const noexcept { return pending_ == 0; }

  /// Position of the earliest pending task (npos when empty); amortized
  /// O(1) over a run.
  [[nodiscard]] std::size_t head() noexcept;

  /// Position of the pending task `pick_candidate` would choose among the
  /// pending tasks that fit `engine`, scanned in position order; npos when
  /// nothing fits.
  [[nodiscard]] std::size_t pick(const Engine& engine);

  /// Removes the task at `pos` from the pending set.
  void remove(std::size_t pos);

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
  /// The near-tie fallback: the linear scan over the tie cluster.
  [[nodiscard]] std::size_t fallback(const Engine& engine);
  /// pick_candidate over fitting_ (aligned with fitting_pos_), as a
  /// position.
  [[nodiscard]] std::size_t chosen_position(const Engine& engine);
  /// The linear scan over every pending fitting task (the audit reference).
  [[nodiscard]] std::size_t scan(const Engine& engine);

  const CompiledInstance* ci_;
  std::span<const TaskId> order_;
  DynamicCriterion criterion_;

  std::vector<std::uint32_t> slot_of_;  ///< position -> global slot
  std::vector<std::uint32_t> pos_of_;   ///< global slot -> position
  std::vector<Time> comm_;              ///< per global slot
  std::vector<Mem> mem_;                ///< per global slot
  std::vector<Time> acc_;               ///< per global slot, MAMR only
  std::vector<std::uint8_t> removed_;   ///< per position

  std::vector<Tree> trees_;  ///< indexed by channel
  std::vector<Probe> probes_;
  std::vector<std::uint32_t> count_;  ///< pending tasks below a node
  std::vector<Mem> min_mem_;          ///< smallest pending footprint
  std::vector<std::uint32_t> best_;   ///< best pending slot, MAMR only

  std::vector<TaskId> fitting_;          ///< fallback scan buffers
  std::vector<std::size_t> fitting_pos_;

  std::size_t head_ = 0;
  std::size_t pending_ = 0;
  SelectionStats stats_;
};

}  // namespace dts
