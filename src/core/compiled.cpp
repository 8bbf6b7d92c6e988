#include "core/compiled.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <string>

#include "support/contract.hpp"

namespace dts {

namespace {

// Error paths live in cold [[noreturn]] helpers so the hot loops contain
// no string construction (enforced by the dts-lint hot-path-noalloc rule).

[[noreturn]] void throw_negative_capacity() {
  throw std::invalid_argument("evaluate_order: capacity must be >= 0");
}

[[noreturn]] void throw_no_channels() {
  throw std::invalid_argument("evaluate_order: need at least one channel");
}

[[noreturn]] void throw_negative_availability() {
  throw std::invalid_argument("evaluate_order: negative availability");
}

[[noreturn]] void throw_unknown_task(TaskId id, std::size_t n) {
  throw std::out_of_range("evaluate_order: task id " + std::to_string(id) +
                          " out of range (instance has " + std::to_string(n) +
                          " tasks)");
}

[[noreturn]] void throw_unknown_channel(TaskId id, ChannelId ch,
                                        std::size_t nch) {
  throw std::out_of_range("evaluate_order: task " + std::to_string(id) +
                          " names channel " + std::to_string(ch) +
                          " but the engine tracks " + std::to_string(nch));
}

[[noreturn]] void throw_never_fits(TaskId id, Mem mem, Mem capacity) {
  throw std::invalid_argument(
      "evaluate_order: task " + std::to_string(id) + " requires " +
      std::to_string(mem) + " bytes but capacity is " +
      std::to_string(capacity));
}

[[noreturn]] void throw_unissued_pred(TaskId id, TaskId dep) {
  throw std::invalid_argument("evaluate_order: task " + std::to_string(id) +
                              " issued before its predecessor " +
                              std::to_string(dep));
}

[[noreturn]] void throw_does_not_fit(TaskId id, Mem used, Mem mem,
                                     Mem capacity) {
  throw std::logic_error("Engine::start: task " + std::to_string(id) +
                         " does not fit (used " + std::to_string(used) +
                         " + " + std::to_string(mem) + " > capacity " +
                         std::to_string(capacity) + ")");
}

[[noreturn]] void throw_unknown_engine_channel(ChannelId ch, std::size_t nch) {
  throw std::out_of_range("Engine::comm_available: channel " +
                          std::to_string(ch) + " but the engine tracks " +
                          std::to_string(nch));
}

}  // namespace

// ----------------------------------------------------------------------
// CompiledInstance

CompiledInstance::CompiledInstance(const Instance& inst)
    : n_channels_(inst.num_channels()),
      min_capacity_(inst.min_capacity()),
      has_dependencies_(inst.has_dependencies()) {
  const std::size_t n = inst.size();
  comm_.reserve(n);
  comp_.reserve(n);
  mem_.reserve(n);
  channel_.reserve(n);
  std::vector<std::size_t> per_channel(n_channels_, 0);
  for (const Task& t : inst) {
    comm_.push_back(t.comm);
    comp_.push_back(t.comp);
    mem_.push_back(t.mem);
    channel_.push_back(t.channel);
    ++per_channel[t.channel];
  }
  dep_offsets_.assign(n + 1, 0);
  if (has_dependencies_) {
    for (std::size_t id = 0; id < n; ++id) {
      dep_offsets_[id + 1] = dep_offsets_[id] + inst[id].deps.size();
    }
    dep_edges_.reserve(dep_offsets_[n]);
    for (const Task& t : inst) {
      dep_edges_.insert(dep_edges_.end(), t.deps.begin(), t.deps.end());
    }
  }
  channel_offsets_.assign(n_channels_ + 1, 0);
  for (std::size_t ch = 0; ch < n_channels_; ++ch) {
    channel_offsets_[ch + 1] = channel_offsets_[ch] + per_channel[ch];
  }
  channel_tasks_.resize(n);
  std::vector<std::size_t> cursor(channel_offsets_.begin(),
                                  channel_offsets_.end() - 1);
  for (std::size_t id = 0; id < n; ++id) {
    channel_tasks_[cursor[channel_[id]]++] = static_cast<TaskId>(id);
  }
}

std::span<const TaskId> CompiledInstance::tasks_on_channel(ChannelId ch) const {
  if (ch >= n_channels_) {
    throw std::out_of_range("CompiledInstance::tasks_on_channel: channel " +
                            std::to_string(ch) + " out of range");
  }
  return std::span<const TaskId>(channel_tasks_)
      .subspan(channel_offsets_[ch],
               channel_offsets_[ch + 1] - channel_offsets_[ch]);
}

// ----------------------------------------------------------------------
// Engine

Time Engine::comm_available(ChannelId ch) const {
  const std::vector<Time>& clocks = state_.comm_avail;
  if (ch >= clocks.size()) throw_unknown_engine_channel(ch, clocks.size());
  return clocks[ch];
}

Time Engine::comm_available() const noexcept {
  const std::vector<Time>& clocks = state_.comm_avail;
  Time latest = clocks[0];
  for (std::size_t c = 1; c < clocks.size(); ++c) {
    latest = std::max(latest, clocks[c]);
  }
  return latest;
}

void Engine::reset(const CompiledInstance& ci, Mem capacity,
                   const Snapshot* initial, std::span<const Time> ready) {
  if (!(capacity >= 0.0)) throw_negative_capacity();  // also rejects NaN
  State& s = state_;
  ci_ = &ci;
  capacity_ = capacity;
  s.makespan = 0.0;
  track_deps_ = ci.has_dependencies();
  deps_stale_ = track_deps_;
  if (!track_deps_) s.comp_end.clear();
  external_ready_.assign(ready.begin(), ready.end());
  if (initial == nullptr) {
    s.comm_avail.assign(ci.num_channels(), 0.0);
    s.now = 0.0;
    s.comp_avail = 0.0;
    s.used = 0.0;
    s.active.clear();
  } else {
    load(*initial);
  }
  // After warm-up this reserve is a no-op: starting can add at most one
  // active entry per task, so start()'s push_back never reallocates.
  s.active.reserve(s.active.size() + ci.size());
}

void Engine::load(const Snapshot& snap) {
  if (snap.comm_available.empty()) throw_no_channels();
  for (Time avail : snap.comm_available) {
    if (avail < 0.0) throw_negative_availability();
  }
  if (snap.comp_available < 0.0 || snap.now < 0.0) {
    throw_negative_availability();
  }
  State& s = state_;
  s.comm_avail.assign(snap.comm_available.begin(), snap.comm_available.end());
  s.comp_avail = snap.comp_available;
  // The decision instant resumes at the earliest instant a new transfer
  // could be issued: the captured instant, or the first free channel if
  // that is later (hand-built snapshots leave `now` at 0 and carry only
  // clocks). Time never runs backwards — a decision instant earlier than
  // the capture would re-admit memory the snapshot no longer tracks.
  s.now = std::max(snap.now,
                   *std::min_element(s.comm_avail.begin(), s.comm_avail.end()));
  s.used = 0.0;
  s.active.clear();
  for (const auto& [comp_end, mem] : snap.active) {
    // Entries already finished relative to the restored clock carry no
    // memory; keep the rest in flight.
    if (approx_leq(comp_end, s.now)) continue;
    s.used += mem;
    s.active.push_back(Active{comp_end, mem});
  }
  std::make_heap(s.active.begin(), s.active.end(), std::greater<>{});
}

Engine::Snapshot Engine::snapshot() const {
  const State& s = state_;
  Snapshot snap;
  snap.comm_available = s.comm_avail;
  snap.comp_available = s.comp_avail;
  snap.now = s.now;
  snap.active.reserve(s.active.size());
  for (const Active& a : s.active) snap.active.emplace_back(a.comp_end, a.mem);
  // Save -> restore must be the identity: batch runtimes, the window
  // solver and the pair-order branch & bound resume engines from
  // snapshots, and a lossy capture silently corrupts time or memory
  // accounting downstream (the bug class tests/differential_test.cpp
  // caught when `now` was not recorded, so multi-channel restores
  // regressed the decision instant).
  DTS_AUDIT_ONLY({
    Engine restored;
    restored.capacity_ = capacity_;
    restored.load(snap);
    const State& r = restored.state_;
    DTS_AUDIT(r.now == s.now,
              "snapshot restore must resume at the captured instant");
    DTS_AUDIT(r.comm_avail == s.comm_avail,
              "snapshot restore must keep every channel clock");
    DTS_AUDIT(r.comp_avail == s.comp_avail,
              "snapshot restore must keep the processor clock");
    DTS_AUDIT(r.active.size() == s.active.size(),
              "snapshot restore must keep every in-flight task");
    DTS_AUDIT(approx_equal(r.used, s.used),
              "snapshot restore must keep the memory footprint");
  });
  return snap;
}

// dts-lint: hot-path
void Engine::release_until(Time t) {
  State& s = state_;
  while (!s.active.empty() && approx_leq(s.active.front().comp_end, t)) {
    s.used -= s.active.front().mem;
    std::pop_heap(s.active.begin(), s.active.end(), std::greater<>{});
    s.active.pop_back();
  }
  if (s.active.empty()) s.used = 0.0;  // snap away accumulated rounding
}

// dts-lint: hot-path
bool Engine::advance_to_next_release() {
  // Every entry ending at or before the decision instant was already
  // released, so the heap top (if any) is a strictly future event.
  State& s = state_;
  if (s.active.empty()) return false;
  s.now = std::max(s.now, s.active.front().comp_end);
  release_until(s.now);
  return true;
}

// The one step every scheduler takes; evaluate_order's admission loop
// below runs the same operation sequence.
// dts-lint: hot-path
TaskTimes Engine::start(TaskId id, Time ready) {
  const CompiledInstance& ci = *ci_;
  if (id >= ci.size()) throw_unknown_task(id, ci.size());
  State& s = state_;
  const ChannelId ch = ci.channel(id);
  const std::size_t nch = s.comm_avail.size();
  if (ch >= nch) throw_unknown_channel(id, ch, nch);
  Time* const clocks = s.comm_avail.data();
  DTS_AUDIT_ONLY(const Time audit_now = s.now;
                 const Time audit_channel = clocks[ch];
                 const Time audit_comp = s.comp_avail;)
  // ready == 0 (no predecessors) leaves the precedence-free timing
  // bit-identical: every clock is >= 0, and std::max keeps its first
  // argument on ties.
  const Time comm_start = std::max(std::max(s.now, clocks[ch]), ready);
  if (comm_start > s.now) {
    // The task's engine is busy past the decision instant (only possible
    // with several channels), or a predecessor finishes later; memory
    // finishing in the gap is released before the footprint check.
    s.now = comm_start;
    release_until(s.now);
  }
  const Mem m = ci.mem(id);
  if (!fits(m)) throw_does_not_fit(id, s.used, m, capacity_);
  const Time comm_end = comm_start + ci.comm(id);
  const Time comp_start = std::max(comm_end, s.comp_avail);
  const Time comp_end = comp_start + ci.comp(id);

  s.used += m;
  s.active.push_back(Active{comp_end, m});
  std::push_heap(s.active.begin(), s.active.end(), std::greater<>{});

  clocks[ch] = comm_end;
  s.comp_avail = comp_end;
  s.makespan = comp_end;

  // The decision instant moves to the earliest free channel.
  Time min_clock = clocks[0];
  for (std::size_t c = 1; c < nch; ++c) {
    min_clock = std::min(min_clock, clocks[c]);
  }
  s.now = std::max(s.now, min_clock);
  release_until(s.now);

  // Clocks only move forward (per-channel monotonicity along the issue
  // order) and the admission check above keeps the footprint bounded;
  // the decision instant never trails the earliest free channel, the
  // invariant the snapshot round-trip relies on.
  DTS_ENSURE(s.now >= audit_now, "decision instant must never decrease");
  DTS_ENSURE(clocks[ch] >= audit_channel,
             "channel clock must be monotone along the issue order");
  DTS_ENSURE(s.comp_avail >= audit_comp, "processor clock must be monotone");
  DTS_ENSURE(s.now >= min_clock,
             "decision instant must cover the earliest free channel");
  DTS_AUDIT(approx_leq(s.used, capacity_),
            "memory bound exceeded mid-simulate");
  return TaskTimes{comm_start, comp_start};
}

void Engine::prepare_deps() {
  if (!deps_stale_) return;
  state_.comp_end.assign(ci_->size(), -1.0);  // -1 = not issued yet
  deps_stale_ = false;
}

// Flattened so start() and the heap operations inline into the loop:
// called out of line, the step costs the scoring paths ~15% on 1k-task
// traces.
// dts-lint: hot-path
[[gnu::flatten]] void Engine::issue(std::span<const TaskId> order,
                                    std::size_t first, std::size_t last,
                                    Schedule* record) {
  const CompiledInstance& ci = *ci_;
  const std::size_t n_tasks = ci.size();
  prepare_deps();
  const Time* const floors =
      external_ready_.empty() ? nullptr : external_ready_.data();
  Time* const ends = track_deps_ ? state_.comp_end.data() : nullptr;

  for (std::size_t k = first; k < last; ++k) {
    const TaskId id = order[k];
    if (id >= n_tasks) throw_unknown_task(id, n_tasks);
    // Wait for computation-finish events until the task fits (memory is
    // only released at those instants).
    const Mem m = ci.mem(id);
    while (!fits(m)) {
      if (!advance_to_next_release()) throw_never_fits(id, m, capacity_);
    }
    // Release-when-predecessors-complete: the transfer waits for every
    // predecessor's computation end and any external cross-window floor.
    Time ready = floors != nullptr ? floors[id] : 0.0;
    if (ends != nullptr) {
      for (const TaskId dep : ci.deps(id)) {
        const Time pred_end = ends[dep];
        if (pred_end < 0.0) throw_unissued_pred(id, dep);
        ready = std::max(ready, pred_end);
      }
    }
    const TaskTimes tt = start(id, ready);
    if (ends != nullptr) ends[id] = state_.makespan;  // its comp end
    if (record != nullptr) record->set(id, tt.comm_start, tt.comp_start);
  }
}

// Flattened like issue(): every static-order heuristic run steps through
// here.
// dts-lint: hot-path
[[gnu::flatten]] void Engine::issue_in_order(std::span<const TaskId> order,
                                             Schedule& sched) {
  const CompiledInstance& ci = *ci_;
  const std::size_t n_tasks = ci.size();
  const bool dag = track_deps_;
  for (const TaskId id : order) {
    if (id >= n_tasks) throw_unknown_task(id, n_tasks);
    Time ready = 0.0;
    if (dag) {
      for (const TaskId dep : ci.deps(id)) {
        if (!sched[dep].scheduled()) throw_unissued_pred(id, dep);
        ready = std::max(ready, sched[dep].comp_start + ci.comp(dep));
      }
    }
    const Mem m = ci.mem(id);
    while (!fits(m)) {
      if (!advance_to_next_release()) throw_never_fits(id, m, capacity_);
    }
    const TaskTimes tt = start(id, ready);
    sched.set(id, tt.comm_start, tt.comp_start);
  }
}

Time evaluate_order(const CompiledInstance& ci, std::span<const TaskId> order,
                    Mem capacity, Engine& engine,
                    const Engine::Snapshot* initial,
                    std::span<const Time> ready) {
  engine.reset(ci, capacity, initial, ready);
  engine.issue(order, 0, order.size(), nullptr);
  return engine.state_.makespan;
}

Time evaluate_order(const CompiledInstance& ci, std::span<const TaskId> order,
                    Mem capacity, Engine& engine, Schedule& out,
                    const Engine::Snapshot* initial,
                    std::span<const Time> ready) {
  engine.reset(ci, capacity, initial, ready);
  engine.issue(order, 0, order.size(), &out);
  return engine.state_.makespan;
}

// ----------------------------------------------------------------------
// PrefixResumeEvaluator

PrefixResumeEvaluator::PrefixResumeEvaluator(const CompiledInstance& ci,
                                             Mem capacity)
    : ci_(&ci), capacity_(capacity) {
  engine_.reset(ci, capacity, nullptr);
  checkpoints_.resize(1);
  save_checkpoint(0);
}

PrefixResumeEvaluator::PrefixResumeEvaluator(
    const CompiledInstance& ci, Mem capacity,
    const Engine::Snapshot& initial)
    : ci_(&ci), capacity_(capacity), has_initial_(true), initial_(initial) {
  engine_.reset(ci, capacity, &initial_);
  checkpoints_.resize(1);
  save_checkpoint(0);
}

void PrefixResumeEvaluator::set_external_ready(std::span<const Time> ready) {
  ready_.assign(ready.begin(), ready.end());
  engine_.reset(*ci_, capacity_, has_initial_ ? &initial_ : nullptr, ready_);
  reference_.clear();  // checkpoints past 0 are stale under the new floors
  save_checkpoint(0);
}

void PrefixResumeEvaluator::save_checkpoint(std::size_t k) {
  engine_.prepare_deps();
  checkpoints_[k] = engine_.state_;
}

// dts-lint: hot-path
void PrefixResumeEvaluator::load_checkpoint(std::size_t k) {
  engine_.state_ = checkpoints_[k];
}

std::size_t PrefixResumeEvaluator::common_prefix(
    std::span<const TaskId> order) const noexcept {
  const std::size_t limit = std::min(order.size(), reference_.size());
  std::size_t k = 0;
  while (k < limit && order[k] == reference_[k]) ++k;
  return k;
}

Time PrefixResumeEvaluator::set_reference(std::span<const TaskId> order) {
  const std::size_t keep = common_prefix(order);
  load_checkpoint(keep);
  if (checkpoints_.size() < order.size() + 1) {
    checkpoints_.resize(order.size() + 1);
  }
  reference_.assign(order.begin(), order.end());
  try {
    for (std::size_t k = keep; k < order.size(); ++k) {
      engine_.issue(order, k, k + 1, nullptr);
      save_checkpoint(k + 1);
    }
  } catch (...) {
    // Checkpoints past `keep` are stale; dropping the reference forces
    // the next call to rebuild from the base state.
    reference_.clear();
    throw;
  }
  ++evaluations_;
  tasks_simulated_ += order.size() - keep;
  tasks_resumed_ += keep;
  return engine_.state_.makespan;
}

// dts-lint: hot-path
Time PrefixResumeEvaluator::evaluate(std::span<const TaskId> order) {
  ++evaluations_;
  const std::size_t keep = common_prefix(order);
  load_checkpoint(keep);

  // Longest common suffix with the reference, disjoint from the kept
  // prefix. Past `merge_from` the candidate issues exactly the
  // reference's remaining tasks, so the engine evolutions can MERGE: the
  // instant the whole engine state bitwise re-equals the reference
  // checkpoint at the same position, every later operation is identical
  // and the reference's final makespan is the candidate's (computation
  // ends are monotone along the issue order, so the final comp_end — a
  // pure function of the merged state and the shared suffix — is the
  // makespan). A local-search swap then costs the divergent window plus
  // a few merge probes instead of the whole suffix.
  std::size_t tail = 0;
  if (order.size() == reference_.size()) {
    const std::size_t room = order.size() - keep;
    while (tail < room && order[order.size() - 1 - tail] ==
                              reference_[order.size() - 1 - tail]) {
      ++tail;
    }
  }
  const std::size_t merge_from = order.size() - tail;

  engine_.issue(order, keep, merge_from, nullptr);
  // Once the states match at some position they match at every later one
  // (identical state + identical next task → identical next state), so a
  // strided probe still catches the merge — it just overshoots by at most
  // kProbeStride - 1 simulated tasks while paying the per-issue overhead
  // kProbeStride times less often.
  constexpr std::size_t kProbeStride = 4;
  for (std::size_t k = merge_from; k < order.size();) {
    if (engine_.state_ == checkpoints_[k]) {
      tasks_simulated_ += k - keep;
      tasks_resumed_ += keep + (order.size() - k);
      return checkpoints_[reference_.size()].makespan;
    }
    const std::size_t next = std::min(k + kProbeStride, order.size());
    engine_.issue(order, k, next, nullptr);
    k = next;
  }
  tasks_simulated_ += order.size() - keep;
  tasks_resumed_ += keep;
  return engine_.state_.makespan;
}

}  // namespace dts
