#include "heuristics/candidate_index.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>

#include "support/contract.hpp"

namespace dts {

namespace {

constexpr std::uint32_t kNoSlot = std::numeric_limits<std::uint32_t>::max();
constexpr Mem kNoMem = std::numeric_limits<Mem>::infinity();

}  // namespace

CandidateIndex::CandidateIndex(const CompiledInstance& ci,
                               std::span<const TaskId> order,
                               DynamicCriterion criterion)
    : ci_(&ci),
      order_(order),
      criterion_(criterion),
      removed_(order.size(), 0),
      trees_(ci.num_channels()),
      probes_(ci.num_channels()),
      pending_(order.size()) {
  const std::size_t n = order.size();
  // Slot order: channel, then comm ascending, then scan position —
  // descending for LCMR, so that the rightmost slot of an equal-comm run
  // is its earliest position.
  const bool lcmr = criterion == DynamicCriterion::kLargestComm;
  pos_of_.resize(n);
  std::iota(pos_of_.begin(), pos_of_.end(), std::uint32_t{0});
  std::sort(pos_of_.begin(), pos_of_.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              const TaskId x = order[a];
              const TaskId y = order[b];
              if (ci.channel(x) != ci.channel(y)) {
                return ci.channel(x) < ci.channel(y);
              }
              if (ci.comm(x) < ci.comm(y)) return true;
              if (ci.comm(y) < ci.comm(x)) return false;
              return lcmr ? a > b : a < b;
            });
  const bool mamr = criterion == DynamicCriterion::kMaxAcceleration;
  slot_of_.resize(n);
  comm_.resize(n);
  mem_.resize(n);
  if (mamr) acc_.resize(n);
  for (std::size_t s = 0; s < n; ++s) {
    const TaskId id = order[pos_of_[s]];
    slot_of_[pos_of_[s]] = static_cast<std::uint32_t>(s);
    comm_[s] = ci.comm(id);
    mem_[s] = ci.mem(id);
    if (mamr) acc_[s] = ci.acceleration(id);
  }

  std::size_t s = 0;
  std::size_t nodes = 0;
  for (std::size_t ch = 0; ch < trees_.size(); ++ch) {
    Tree& t = trees_[ch];
    t.channel = static_cast<ChannelId>(ch);
    t.first = s;
    while (s < n && ci.channel(order[pos_of_[s]]) == ch) ++s;
    t.n = s - t.first;
    t.leaves = t.n == 0 ? 0 : std::bit_ceil(t.n);
    t.node_base = nodes;
    nodes += 2 * t.leaves;
  }
  count_.assign(nodes, 0);
  min_mem_.assign(nodes, kNoMem);
  if (mamr) best_.assign(nodes, kNoSlot);
  for (const Tree& t : trees_) {
    for (std::size_t i = 0; i < t.n; ++i) {
      const std::size_t leaf = t.node_base + t.leaves + i;
      count_[leaf] = 1;
      min_mem_[leaf] = mem_[t.first + i];
      if (mamr) best_[leaf] = static_cast<std::uint32_t>(t.first + i);
    }
    for (std::size_t k = t.leaves; k-- > 1;) pull(t, k);
  }
  fitting_.reserve(n);
  fitting_pos_.reserve(n);
}

std::size_t CandidateIndex::head() noexcept {
  while (head_ < removed_.size() && removed_[head_] != 0) ++head_;
  return head_ < removed_.size() ? head_ : npos;
}

bool CandidateIndex::has_fit(std::size_t node,
                             const Engine& engine) const noexcept {
  // fits() is monotone in the footprint, so the subtree minimum decides
  // exactly whether any pending task below `node` fits.
  return count_[node] != 0 && engine.fits(min_mem_[node]);
}

bool CandidateIndex::acc_better(std::size_t a, std::size_t b) const noexcept {
  return acc_[a] > acc_[b] || (acc_[a] == acc_[b] && pos_of_[a] < pos_of_[b]);
}

bool CandidateIndex::better(std::size_t a, std::size_t b) const noexcept {
  switch (criterion_) {
    case DynamicCriterion::kLargestComm:
      return comm_[a] > comm_[b] ||
             (comm_[a] == comm_[b] && pos_of_[a] < pos_of_[b]);
    case DynamicCriterion::kSmallestComm:
      return comm_[a] < comm_[b] ||
             (comm_[a] == comm_[b] && pos_of_[a] < pos_of_[b]);
    case DynamicCriterion::kMaxAcceleration:
      return acc_better(a, b);
  }
  return false;
}

void CandidateIndex::pull(const Tree& t, std::size_t k) noexcept {
  const std::size_t node = t.node_base + k;
  const std::size_t left = t.node_base + 2 * k;
  const std::size_t right = left + 1;
  count_[node] = count_[left] + count_[right];
  min_mem_[node] = std::min(min_mem_[left], min_mem_[right]);
  if (!best_.empty()) {
    const std::uint32_t l = best_[left];
    const std::uint32_t r = best_[right];
    best_[node] = l == kNoSlot ? r
                  : r == kNoSlot ? l
                  : acc_better(r, l) ? r
                                     : l;
  }
}

// dts-lint: hot-path
std::size_t CandidateIndex::first_fit(const Tree& t, std::size_t k,
                                      std::size_t lo, std::size_t hi,
                                      std::size_t from,
                                      const Engine& engine) noexcept {
  ++stats_.nodes_visited;
  if (hi <= from || !has_fit(t.node_base + k, engine)) return npos;
  if (hi - lo == 1) return t.first + lo;
  const std::size_t mid = lo + (hi - lo) / 2;
  const std::size_t left = first_fit(t, 2 * k, lo, mid, from, engine);
  return left != npos ? left : first_fit(t, 2 * k + 1, mid, hi, from, engine);
}

// dts-lint: hot-path
std::size_t CandidateIndex::last_fit(const Tree& t, std::size_t k,
                                     std::size_t lo, std::size_t hi,
                                     std::size_t from, std::size_t to,
                                     const Engine& engine) noexcept {
  ++stats_.nodes_visited;
  if (hi <= from || to <= lo || !has_fit(t.node_base + k, engine)) return npos;
  if (hi - lo == 1) return t.first + lo;
  const std::size_t mid = lo + (hi - lo) / 2;
  const std::size_t right = last_fit(t, 2 * k + 1, mid, hi, from, to, engine);
  return right != npos ? right
                       : last_fit(t, 2 * k, lo, mid, from, to, engine);
}

// dts-lint: hot-path
void CandidateIndex::best_fit(const Tree& t, std::size_t k, std::size_t lo,
                              std::size_t hi, std::size_t from, std::size_t to,
                              const Engine& engine,
                              std::size_t& best) noexcept {
  ++stats_.nodes_visited;
  const std::size_t node = t.node_base + k;
  if (hi <= from || to <= lo || !has_fit(node, engine)) return;
  // The subtree's best pending task bounds every fitting one below it.
  const std::size_t top = best_[node];
  if (best != npos && !acc_better(top, best)) return;
  if (from <= lo && hi <= to && engine.fits(mem_[top])) {
    best = top;
    return;
  }
  if (hi - lo == 1) return;
  const std::size_t mid = lo + (hi - lo) / 2;
  best_fit(t, 2 * k, lo, mid, from, to, engine, best);
  best_fit(t, 2 * k + 1, mid, hi, from, to, engine, best);
}

// dts-lint: hot-path
void CandidateIndex::collect(const Tree& t, std::size_t k, std::size_t lo,
                             std::size_t hi, std::size_t from, std::size_t to,
                             const Engine& engine) {
  ++stats_.nodes_visited;
  if (hi <= from || to <= lo || !has_fit(t.node_base + k, engine)) return;
  if (hi - lo == 1) {
    fitting_pos_.push_back(pos_of_[t.first + lo]);
    return;
  }
  const std::size_t mid = lo + (hi - lo) / 2;
  collect(t, 2 * k, lo, mid, from, to, engine);
  collect(t, 2 * k + 1, mid, hi, from, to, engine);
}

// dts-lint: hot-path
std::size_t CandidateIndex::idle_end(const Probe& p, std::size_t end,
                                     Time bound, Time comp_avail) noexcept {
  std::size_t lo = p.f0 + 1;
  std::size_t hi = end;
  while (lo < hi) {
    ++stats_.nodes_visited;
    const std::size_t mid = lo + (hi - lo) / 2;
    if (induced_idle(p.start, comm_[mid], comp_avail) <= bound) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// dts-lint: hot-path
std::size_t CandidateIndex::pick(const Engine& engine) {
  ++stats_.picks;
  const Time now = engine.now();
  const Time comp_avail = engine.comp_available();
  // 1. The minimum idle m: each channel's leftmost fitting slot.
  bool any = false;
  Time m = 0.0;
  for (const Tree& t : trees_) {
    Probe& p = probes_[t.channel];
    p.f0 = t.n == 0 ? npos : first_fit(t, 1, 0, t.leaves, 0, engine);
    if (p.f0 == npos) continue;
    p.start = std::max(now, engine.comm_available(t.channel));
    p.idle = induced_idle(p.start, comm_[p.f0], comp_avail);
    if (!any || p.idle < m) m = p.idle;
    any = true;
  }
  if (!any) {
    DTS_AUDIT(scan(engine) == npos, "indexed pick missed a fitting task");
    return npos;
  }

  // 2. The tie cluster: the fitting tasks whose idle is at most `bound`.
  // It starts as the tasks idling exactly m and absorbs the next larger
  // fitting idle while that one is tolerance-tied with the current top.
  Time bound = m;
  bool near_tie = false;
  for (;;) {
    bool have_next = false;
    Time next = 0.0;
    for (const Tree& t : trees_) {
      Probe& p = probes_[t.channel];
      if (p.f0 == npos) continue;
      Time idle = p.idle;  // next fitting idle of this channel
      p.end = p.f0;
      if (p.idle <= bound) {
        p.end = idle_end(p, t.first + t.n, bound, comp_avail);
        const std::size_t after = first_fit(t, 1, 0, t.leaves,
                                            p.end - t.first, engine);
        if (after == npos) continue;
        idle = induced_idle(p.start, comm_[after], comp_avail);
      }
      if (!have_next || idle < next) next = idle;
      have_next = true;
    }
    if (!have_next || definitely_less(bound, next)) break;
    bound = next;
    near_tie = true;
  }
  if (near_tie) return fallback(engine);

  // 3. No near-tie: every fitting task outside the cluster idles
  // definitely more than m, so the scan ends on the best-criterion,
  // earliest-position task idling exactly m.
  std::size_t chosen = npos;
  for (const Tree& t : trees_) {
    const Probe& p = probes_[t.channel];
    if (p.f0 == npos || p.end == p.f0) continue;
    const std::size_t from = p.f0 - t.first;
    const std::size_t to = p.end - t.first;
    std::size_t winner = p.f0;  // SCMR: smallest comm, earliest position
    if (criterion_ == DynamicCriterion::kLargestComm) {
      winner = last_fit(t, 1, 0, t.leaves, from, to, engine);
    } else if (criterion_ == DynamicCriterion::kMaxAcceleration) {
      winner = npos;
      best_fit(t, 1, 0, t.leaves, from, to, engine, winner);
    }
    if (chosen == npos || better(winner, chosen)) chosen = winner;
  }
  const std::size_t pos = pos_of_[chosen];
  DTS_AUDIT(pos == scan(engine),
            "indexed pick differs from the linear pick_candidate scan");
  return pos;
}

// dts-lint: hot-path
std::size_t CandidateIndex::fallback(const Engine& engine) {
  // Every fitting task outside the cluster idles definitely more than
  // every task inside it: the scan's first cluster task replaces any
  // earlier outsider, and no outsider can replace a cluster task. So the
  // linear scan over the cluster alone, in position order, is exact.
  ++stats_.fallback_picks;
  fitting_pos_.clear();
  for (const Tree& t : trees_) {
    const Probe& p = probes_[t.channel];
    if (p.f0 == npos || p.end == p.f0) continue;
    collect(t, 1, 0, t.leaves, p.f0 - t.first, p.end - t.first, engine);
  }
  std::sort(fitting_pos_.begin(), fitting_pos_.end());
  fitting_.clear();
  for (const std::size_t pos : fitting_pos_) fitting_.push_back(order_[pos]);
  stats_.fallback_scanned += fitting_.size();
  const std::size_t pos = chosen_position(engine);
  DTS_AUDIT(pos == scan(engine),
            "near-tie pick differs from the linear pick_candidate scan");
  return pos;
}

std::size_t CandidateIndex::chosen_position(const Engine& engine) {
  const TaskId chosen = pick_candidate(*ci_, engine, fitting_, criterion_);
  if (chosen == kInvalidTask) return npos;
  return fitting_pos_[static_cast<std::size_t>(
      std::find(fitting_.begin(), fitting_.end(), chosen) - fitting_.begin())];
}

std::size_t CandidateIndex::scan(const Engine& engine) {
  fitting_.clear();
  fitting_pos_.clear();
  for (std::size_t pos = head(); pos < order_.size(); ++pos) {
    if (removed_[pos] != 0) continue;
    const TaskId id = order_[pos];
    if (engine.fits(ci_->mem(id))) {
      fitting_.push_back(id);
      fitting_pos_.push_back(pos);
    }
  }
  return chosen_position(engine);
}

void CandidateIndex::remove(std::size_t pos) {
  removed_[pos] = 1;
  --pending_;
  const Tree& t = trees_[ci_->channel(order_[pos])];
  std::size_t k = t.leaves + (slot_of_[pos] - t.first);
  count_[t.node_base + k] = 0;
  min_mem_[t.node_base + k] = kNoMem;
  if (!best_.empty()) best_[t.node_base + k] = kNoSlot;
  for (k /= 2; k >= 1; k /= 2) {
    ++stats_.nodes_visited;
    pull(t, k);
  }
}

}  // namespace dts
