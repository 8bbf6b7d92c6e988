#include "core/instance.hpp"

#include <algorithm>
#include <functional>
#include <numeric>
#include <queue>
#include <stdexcept>
#include <utility>

namespace dts {

Instance::Instance(std::vector<Task> tasks) : tasks_(std::move(tasks)) {
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    if (!is_valid(tasks_[i])) {
      throw std::invalid_argument("Instance: invalid task at position " +
                                  std::to_string(i) + ": " + to_string(tasks_[i]));
    }
    tasks_[i].id = static_cast<TaskId>(i);
    // is_valid caps channel below kMaxChannels; widen anyway so no input
    // could ever wrap the +1.
    num_channels_ = std::max(
        num_channels_, static_cast<std::size_t>(tasks_[i].channel) + 1);
    min_capacity_ = std::max(min_capacity_, tasks_[i].mem);
    fully_bound_ = fully_bound_ && tasks_[i].time_bound();
    fully_byte_annotated_ = fully_byte_annotated_ && tasks_[i].has_comm_bytes();
    has_dependencies_ = has_dependencies_ || !tasks_[i].deps.empty();
  }
  if (has_dependencies_) validate_dependencies();
}

void Instance::validate_dependencies() const {
  const std::size_t n = tasks_.size();
  std::vector<std::size_t> indegree(n, 0);
  std::vector<std::size_t> first(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (const TaskId dep : tasks_[i].deps) {
      if (dep >= n) {
        throw std::invalid_argument(
            "Instance: task " + std::to_string(i) +
            " depends on unknown task " + std::to_string(dep) +
            " (instance has " + std::to_string(n) + " tasks)");
      }
      if (dep == static_cast<TaskId>(i)) {
        throw std::invalid_argument("Instance: task " + std::to_string(i) +
                                    " depends on itself");
      }
      ++indegree[i];
      ++first[dep];
    }
  }
  // Successors in one array, task t's at [first[t], first[t + 1]) in
  // ascending order: count, sum the counts, then place from the back.
  std::partial_sum(first.begin(), first.end(), first.begin());
  std::vector<TaskId> successors(first[n]);
  for (std::size_t i = n; i-- > 0;) {
    for (const TaskId dep : tasks_[i].deps) {
      successors[--first[dep]] = static_cast<TaskId>(i);
    }
  }
  // Kahn's algorithm: if the peel stops short, the remainder is a cycle.
  std::vector<TaskId> ready;
  for (std::size_t i = 0; i < n; ++i) {
    if (indegree[i] == 0) ready.push_back(static_cast<TaskId>(i));
  }
  std::size_t placed = 0;
  while (!ready.empty()) {
    const TaskId t = ready.back();
    ready.pop_back();
    ++placed;
    for (std::size_t s = first[t]; s < first[t + 1]; ++s) {
      if (--indegree[successors[s]] == 0) ready.push_back(successors[s]);
    }
  }
  if (placed != n) {
    std::string cyclic;
    for (std::size_t i = 0; i < n; ++i) {
      if (indegree[i] > 0) {
        if (!cyclic.empty()) cyclic += ", ";
        cyclic += std::to_string(i);
      }
    }
    throw std::invalid_argument(
        "Instance: dependency cycle among tasks {" + cyclic + "}");
  }
}

std::vector<TaskId> Instance::topological_order() const {
  const std::size_t n = tasks_.size();
  if (!has_dependencies_) return submission_order();
  std::vector<std::size_t> indegree(n, 0);
  std::vector<std::vector<TaskId>> successors(n);
  for (std::size_t i = 0; i < n; ++i) {
    indegree[i] = tasks_[i].deps.size();
    for (const TaskId dep : tasks_[i].deps) {
      successors[dep].push_back(static_cast<TaskId>(i));
    }
  }
  // Min-id-first among the ready tasks: deterministic, and the identity
  // permutation whenever the edges permit it (in particular when there
  // are none), so DAG-aware solvers reduce to submission order exactly.
  std::priority_queue<TaskId, std::vector<TaskId>, std::greater<>> ready;
  for (std::size_t i = 0; i < n; ++i) {
    if (indegree[i] == 0) ready.push(static_cast<TaskId>(i));
  }
  std::vector<TaskId> order;
  order.reserve(n);
  while (!ready.empty()) {
    const TaskId t = ready.top();
    ready.pop();
    order.push_back(t);
    for (const TaskId succ : successors[t]) {
      if (--indegree[succ] == 0) ready.push(succ);
    }
  }
  return order;  // construction guarantees acyclicity: |order| == n
}

bool Instance::is_topological_order(std::span<const TaskId> order) const {
  const std::size_t n = tasks_.size();
  if (order.size() != n) return false;
  std::vector<std::size_t> position(n, n);
  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    if (order[pos] >= n || position[order[pos]] != n) return false;
    position[order[pos]] = pos;
  }
  if (!has_dependencies_) return true;
  for (const Task& t : tasks_) {
    for (const TaskId dep : t.deps) {
      if (position[dep] > position[t.id]) return false;
    }
  }
  return true;
}

Instance Instance::from_triples(std::initializer_list<Triple> triples) {
  std::vector<Task> tasks;
  tasks.reserve(triples.size());
  for (const auto& t : triples) {
    tasks.push_back(Task{.id = 0, .comm = t.comm, .comp = t.comp, .mem = t.mem, .name = {}});
  }
  return Instance(std::move(tasks));
}

Instance Instance::from_comm_comp(std::initializer_list<Pair> pairs) {
  std::vector<Task> tasks;
  tasks.reserve(pairs.size());
  for (const auto& p : pairs) {
    tasks.push_back(Task{.id = 0, .comm = p.comm, .comp = p.comp, .mem = p.comm, .name = {}});
  }
  return Instance(std::move(tasks));
}

InstanceStats Instance::stats() const {
  InstanceStats s;
  s.n_tasks = tasks_.size();
  s.sum_comm_per_channel.assign(num_channels_, 0.0);
  for (const Task& t : tasks_) {
    // Time-less tasks carry the kUnboundTime sentinel; counting it would
    // silently shrink the sums (and comp >= -1 would classify every such
    // task as compute intensive).
    const Time comm = t.time_bound() ? t.comm : 0.0;
    s.sum_comm += comm;
    s.sum_comp += t.comp;
    s.sum_comm_per_channel[t.channel] += comm;
    s.total_mem += t.mem;
    s.max_mem = std::max(s.max_mem, t.mem);
    if (t.time_bound() && t.compute_intensive()) ++s.n_compute_intensive;
  }
  return s;
}

std::vector<TaskId> Instance::tasks_on_channel(ChannelId ch) const {
  std::vector<TaskId> ids;
  for (const Task& t : tasks_) {
    if (t.channel == ch) ids.push_back(t.id);
  }
  return ids;
}

Instance Instance::subset(std::span<const TaskId> ids) const {
  std::vector<Task> tasks;
  tasks.reserve(ids.size());
  for (TaskId id : ids) tasks.push_back(tasks_.at(id));
  if (has_dependencies_) {
    // Remap internal edges to local ids; drop edges leaving the subset —
    // the caller owns cross-boundary readiness (window ready times). The
    // (id, local id) table covers the subset only, so a batch of a DAG
    // batch walk costs O((b + e) log b), not O(n).
    std::vector<std::pair<TaskId, TaskId>> local;
    local.reserve(ids.size());
    for (std::size_t pos = 0; pos < ids.size(); ++pos) {
      local.emplace_back(ids[pos], static_cast<TaskId>(pos));
    }
    std::sort(local.begin(), local.end());
    for (Task& t : tasks) {
      std::vector<TaskId> kept;
      for (const TaskId dep : t.deps) {
        const auto it = std::lower_bound(local.begin(), local.end(),
                                         std::pair<TaskId, TaskId>(dep, 0));
        if (it != local.end() && it->first == dep) kept.push_back(it->second);
      }
      t.deps = std::move(kept);
    }
  }
  return Instance(std::move(tasks));
}

std::vector<TaskId> Instance::submission_order() const {
  std::vector<TaskId> order(tasks_.size());
  std::iota(order.begin(), order.end(), TaskId{0});
  return order;
}

Instance Instance::without_dependencies() const {
  std::vector<Task> relaxed = tasks_;
  for (Task& t : relaxed) t.deps.clear();
  return Instance(std::move(relaxed));
}

std::vector<TaskId> legalize_order(const Instance& inst,
                                   std::span<const TaskId> desired) {
  const std::size_t n = inst.size();
  std::vector<std::size_t> position(n, n);
  if (desired.size() != n) {
    throw std::invalid_argument(
        "legalize_order: order must cover all tasks");
  }
  for (std::size_t k = 0; k < n; ++k) {
    const TaskId id = desired[k];
    if (id >= n || position[id] != n) {
      throw std::invalid_argument(
          "legalize_order: order is not a permutation of the task ids");
    }
    position[id] = k;
  }
  if (!inst.has_dependencies()) return {desired.begin(), desired.end()};

  // Stable ready-list schedule: among the tasks whose predecessors are
  // all emitted, always the one earliest in `desired`. An input that is
  // already topological round-trips unchanged (its next desired task is
  // always ready).
  std::vector<std::size_t> indegree(n, 0);
  std::vector<std::vector<TaskId>> successors(n);
  for (TaskId id = 0; id < n; ++id) {
    for (const TaskId dep : inst[id].deps) {
      ++indegree[id];
      successors[dep].push_back(id);
    }
  }
  // Min-heap on desired position.
  std::priority_queue<std::size_t, std::vector<std::size_t>,
                      std::greater<>>
      ready;
  for (TaskId id = 0; id < n; ++id) {
    if (indegree[id] == 0) ready.push(position[id]);
  }
  std::vector<TaskId> order;
  order.reserve(n);
  while (!ready.empty()) {
    const TaskId id = desired[ready.top()];
    ready.pop();
    order.push_back(id);
    for (const TaskId succ : successors[id]) {
      if (--indegree[succ] == 0) ready.push(position[succ]);
    }
  }
  // The constructor rejected cyclic edge sets, so every task was emitted.
  return order;
}

}  // namespace dts
