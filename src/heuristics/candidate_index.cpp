#include "heuristics/candidate_index.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "support/contract.hpp"

namespace dts {

namespace {

constexpr std::uint32_t kNoSlot = std::numeric_limits<std::uint32_t>::max();
constexpr std::uint32_t kStarted = std::numeric_limits<std::uint32_t>::max();
constexpr Mem kNoMem = std::numeric_limits<Mem>::infinity();

/// Cold error funnel for the cross-batch deadlock: no pending task is
/// eligible, which on an acyclic instance means some `task` waits on a
/// `dep` that is neither pending in the run nor scheduled.
[[noreturn]] void throw_unready(const char* who, TaskId task, TaskId dep) {
  throw std::invalid_argument(
      std::string(who) + ": task " + std::to_string(task) +
      " waits on predecessor " + std::to_string(dep) +
      " which is neither scheduled nor pending here");
}

}  // namespace

CandidateIndex::CandidateIndex(const CompiledInstance& ci,
                               std::span<const TaskId> order,
                               DynamicCriterion criterion, Schedule& out)
    : ci_(&ci),
      order_(order),
      criterion_(criterion),
      out_(&out),
      waiting_(order.size(), 0),
      floor_(order.size(), 0.0),
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
  floored_.reserve(n);
  if (ci.has_dependencies()) link(out);

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
      // Tasks with an unscheduled predecessor wait; the others start at
      // the channel's start or, floored later, go to F.
      const std::uint32_t pos = pos_of_[t.first + i];
      if (waiting_[pos] != 0) continue;
      if (floor_[pos] > 0.0) {
        floored_.push_back(pos);
        continue;
      }
      const std::size_t leaf = t.node_base + t.leaves + i;
      count_[leaf] = 1;
      min_mem_[leaf] = mem_[t.first + i];
      if (mamr) best_[leaf] = static_cast<std::uint32_t>(t.first + i);
    }
    for (std::size_t k = t.leaves; k-- > 1;) pull(t, k);
  }
  fitting_.reserve(n);
  fitting_pos_.reserve(n);
  fitting_floor_.reserve(n);
}

void CandidateIndex::link(const Schedule& out) {
  const std::size_t n = order_.size();
  // (id, position) pairs sorted by id: each predecessor lookup is a
  // binary search, with no table the size of the whole instance.
  using Entry = std::pair<TaskId, std::uint32_t>;
  std::vector<Entry> by_id(n);
  for (std::size_t pos = 0; pos < n; ++pos) {
    by_id[pos] = {order_[pos], static_cast<std::uint32_t>(pos)};
  }
  std::sort(by_id.begin(), by_id.end());
  std::vector<Entry> edges;  // (predecessor, successor) positions
  for (std::size_t pos = 0; pos < n; ++pos) {
    for (const TaskId dep : ci_->deps(order_[pos])) {
      const auto it = std::lower_bound(by_id.begin(), by_id.end(), Entry(dep, 0));
      if (it != by_id.end() && it->first == dep) {
        edges.emplace_back(it->second, static_cast<std::uint32_t>(pos));
        ++waiting_[pos];
      } else if (out[dep].scheduled()) {
        floor_[pos] = std::max(floor_[pos], out[dep].comp_start + ci_->comp(dep));
      } else {
        ++waiting_[pos];  // never satisfied in this run
        if (unready_task_ == kInvalidTask) {
          unready_task_ = order_[pos];
          unready_dep_ = dep;
        }
      }
    }
  }
  std::sort(edges.begin(), edges.end());
  succ_first_.assign(n + 1, 0);
  succ_.reserve(edges.size());
  for (const auto& [pred, succ] : edges) {
    ++succ_first_[pred + 1];
    succ_.push_back(succ);
  }
  std::partial_sum(succ_first_.begin(), succ_first_.end(),
                   succ_first_.begin());
}

std::size_t CandidateIndex::head() noexcept {
  while (head_ < waiting_.size() && waiting_[head_] == kStarted) ++head_;
  return head_ < waiting_.size() ? head_ : npos;
}

void CandidateIndex::set_leaf(std::size_t pos, bool on) noexcept {
  const std::size_t slot = slot_of_[pos];
  const Tree& t = trees_[ci_->channel(order_[pos])];
  std::size_t k = t.leaves + (slot - t.first);
  if ((count_[t.node_base + k] != 0) == on) return;
  count_[t.node_base + k] = on ? 1 : 0;
  min_mem_[t.node_base + k] = on ? mem_[slot] : kNoMem;
  if (!best_.empty()) {
    best_[t.node_base + k] = on ? static_cast<std::uint32_t>(slot) : kNoSlot;
  }
  for (k /= 2; k >= 1; k /= 2) {
    ++stats_.nodes_visited;
    pull(t, k);
  }
}

// dts-lint: hot-path
void CandidateIndex::promote(const Engine& engine) {
  stats_.nodes_visited += floored_.size();
  std::erase_if(floored_, [&](std::uint32_t pos) {
    if (waiting_[pos] == kStarted) return true;
    const ChannelId ch = ci_->channel(order_[pos]);
    if (floor_[pos] > std::max(engine.now(), engine.comm_available(ch))) {
      return false;
    }
    set_leaf(pos, true);
    return true;
  });
}

// dts-lint: hot-path
void CandidateIndex::floored_next(Time above, const Engine& engine,
                                  bool& have, Time& next) {
  stats_.nodes_visited += floored_.size();
  for (const std::uint32_t pos : floored_) {
    const Time idle = floored_idle(pos, engine);
    if (idle == kInfiniteTime || idle <= above) continue;
    if (!have || idle < next) next = idle;
    have = true;
  }
}

Time CandidateIndex::floored_idle(std::size_t pos,
                                  const Engine& engine) const {
  const TaskId id = order_[pos];
  if (!engine.fits(ci_->mem(id))) return kInfiniteTime;
  return induced_idle(floor_[pos], ci_->comm(id), engine.comp_available());
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
  promote(engine);
  const Time now = engine.now();
  const Time comp_avail = engine.comp_available();
  // 1. The minimum idle m: each channel's leftmost fitting slot, and F.
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
  floored_next(-1.0, engine, any, m);
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
    floored_next(bound, engine, have_next, next);
    if (!have_next || definitely_less(bound, next)) break;
    bound = next;
    near_tie = true;
  }
  if (near_tie) return fallback(engine, bound);

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
  stats_.nodes_visited += floored_.size();
  for (const std::uint32_t pos : floored_) {
    if (floored_idle(pos, engine) > m) continue;
    if (chosen == npos || better(slot_of_[pos], chosen)) chosen = slot_of_[pos];
  }
  const std::size_t pos = pos_of_[chosen];
  DTS_AUDIT(pos == scan(engine),
            "indexed pick differs from the linear pick_candidate scan");
  return pos;
}

// dts-lint: hot-path
std::size_t CandidateIndex::fallback(const Engine& engine, Time bound) {
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
  for (const std::uint32_t pos : floored_) {
    if (floored_idle(pos, engine) <= bound) fitting_pos_.push_back(pos);
  }
  std::sort(fitting_pos_.begin(), fitting_pos_.end());
  stats_.fallback_scanned += fitting_pos_.size();
  const std::size_t pos = chosen_position(engine);
  DTS_AUDIT(pos == scan(engine),
            "near-tie pick differs from the linear pick_candidate scan");
  return pos;
}

std::size_t CandidateIndex::chosen_position(const Engine& engine) {
  fitting_.clear();
  fitting_floor_.clear();
  for (const std::size_t pos : fitting_pos_) {
    fitting_.push_back(order_[pos]);
    fitting_floor_.push_back(floor_[pos]);
  }
  const TaskId chosen =
      pick_candidate(*ci_, engine, fitting_, criterion_, fitting_floor_);
  if (chosen == kInvalidTask) return npos;
  return fitting_pos_[static_cast<std::size_t>(
      std::find(fitting_.begin(), fitting_.end(), chosen) - fitting_.begin())];
}

std::size_t CandidateIndex::scan(const Engine& engine) {
  fitting_pos_.clear();
  for (std::size_t pos = head(); pos < order_.size(); ++pos) {
    if (eligible(pos) && engine.fits(ci_->mem(order_[pos]))) {
      fitting_pos_.push_back(pos);
    }
  }
  return chosen_position(engine);
}

void CandidateIndex::start(std::size_t pos, Engine& engine) {
  const TaskId id = order_[pos];
  const TaskTimes tt = engine.start(id, floor_[pos]);
  out_->set(id, tt.comm_start, tt.comp_start);
  set_leaf(pos, false);  // promote() drops a task started from F
  waiting_[pos] = kStarted;
  --pending_;
  if (succ_.empty()) return;
  const Time end = tt.comp_start + ci_->comp(id);
  for (std::uint32_t k = succ_first_[pos]; k < succ_first_[pos + 1]; ++k) {
    const std::uint32_t next = succ_[k];
    floor_[next] = std::max(floor_[next], end);
    if (--waiting_[next] == 0) floored_.push_back(next);
  }
}

void CandidateIndex::wait(const char* who, Engine& engine) const {
  std::size_t eligible = floored_.size();
  for (const Tree& t : trees_) {
    if (t.n != 0) eligible += count_[t.node_base + 1];
  }
  if (eligible == 0) throw_unready(who, unready_task_, unready_dep_);
  if (!engine.advance_to_next_release()) {
    throw std::invalid_argument(
        std::string(who) + ": a pending task exceeds the memory capacity");
  }
}

}  // namespace dts
