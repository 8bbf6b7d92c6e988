#include "trace/transforms.hpp"

#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

namespace dts {

namespace {

void require_positive_factor(double factor, const char* what) {
  if (!(factor > 0.0) || !std::isfinite(factor)) {
    throw std::invalid_argument(std::string(what) +
                                ": factor must be positive and finite");
  }
}

}  // namespace

Instance scale_times(const Instance& inst, double comm_factor,
                     double comp_factor) {
  require_positive_factor(comm_factor, "scale_times(comm)");
  require_positive_factor(comp_factor, "scale_times(comp)");
  std::vector<Task> tasks(inst.tasks());
  for (Task& t : tasks) {
    if (t.time_bound()) t.comm *= comm_factor;  // sentinels stay time-less
    t.comp *= comp_factor;
  }
  return Instance(std::move(tasks));
}

Instance scale_memory(const Instance& inst, double factor) {
  require_positive_factor(factor, "scale_memory");
  std::vector<Task> tasks(inst.tasks());
  for (Task& t : tasks) t.mem *= factor;
  return Instance(std::move(tasks));
}

Instance merge_traces(std::span<const Instance> traces) {
  std::vector<Task> tasks;
  std::size_t total = 0;
  for (const Instance& inst : traces) total += inst.size();
  tasks.reserve(total);
  for (const Instance& inst : traces) {
    const TaskId base = static_cast<TaskId>(tasks.size());
    tasks.insert(tasks.end(), inst.tasks().begin(), inst.tasks().end());
    if (base > 0 && inst.has_dependencies()) {
      // Edges are per-trace local ids; shift them into the merged space.
      for (std::size_t i = base; i < tasks.size(); ++i) {
        for (TaskId& dep : tasks[i].deps) dep += base;
      }
    }
  }
  return Instance(std::move(tasks));
}

Instance filter_tasks(const Instance& inst,
                      const std::function<bool(const Task&)>& keep) {
  std::vector<TaskId> kept;
  for (const Task& t : inst) {
    if (keep(t)) kept.push_back(t.id);
  }
  // subset() remaps surviving edges to the new ids and drops edges onto
  // filtered-out tasks (their predecessors-of-predecessors are NOT
  // inherited — the filter severs the chain).
  return inst.subset(kept);
}

Instance jitter_times(const Instance& inst, Rng& rng, double jitter) {
  if (!(jitter >= 0.0) || jitter >= 1.0) {
    throw std::invalid_argument("jitter_times: jitter must be in [0, 1)");
  }
  std::vector<Task> tasks(inst.tasks());
  for (Task& t : tasks) {
    const double comm_factor = rng.uniform(1.0 - jitter, 1.0 + jitter);
    if (t.time_bound()) t.comm *= comm_factor;  // sentinels stay time-less
    t.comp *= rng.uniform(1.0 - jitter, 1.0 + jitter);
  }
  return Instance(std::move(tasks));
}

std::vector<Instance> split_batches(const Instance& inst,
                                    std::size_t batch_size) {
  if (batch_size == 0) {
    throw std::invalid_argument("split_batches: batch_size must be > 0");
  }
  std::vector<Instance> batches;
  for (std::size_t lo = 0; lo < inst.size(); lo += batch_size) {
    const std::size_t hi = std::min(lo + batch_size, inst.size());
    std::vector<TaskId> ids(hi - lo);
    std::iota(ids.begin(), ids.end(), static_cast<TaskId>(lo));
    // subset() keeps intra-batch edges (remapped to batch-local ids) and
    // drops cross-batch edges: each batch is scheduled as its own
    // instance, so the caller owns cross-batch readiness — the batch
    // scheduler submits batches in order and earlier batches' starts are
    // visible in the shared Schedule.
    batches.push_back(inst.subset(ids));
  }
  return batches;
}

Instance with_writeback(const Instance& inst, const Machine& machine,
                        double result_fraction, bool depend_on_producer) {
  if (!(result_fraction > 0.0) || result_fraction > 1.0) {
    throw std::invalid_argument(
        "with_writeback: result_fraction must be in (0, 1]");
  }
  if (!machine.duplex()) {
    throw std::invalid_argument("with_writeback: machine '" + machine.name() +
                                "' has no D2H channel");
  }
  const MachineChannel& d2h = machine.channel(kChannelD2H);
  // Interleaving shifts every original task's id; edges may point forward
  // (the constructor only requires acyclicity), so the full old-id -> new-id
  // map must exist before any edge is rewritten.
  std::vector<TaskId> new_id(inst.size());
  TaskId next = 0;
  for (const Task& t : inst) {
    new_id[t.id] = next++;
    if (t.mem > 0.0) ++next;  // its write-back slot
  }
  std::vector<Task> tasks;
  tasks.reserve(2 * inst.size());
  for (const Task& t : inst) {
    tasks.push_back(t);
    for (TaskId& dep : tasks.back().deps) dep = new_id[dep];
    if (!(t.mem > 0.0)) continue;  // nothing was fetched, nothing to return
    const Mem result_bytes = result_fraction * t.mem;
    Task wb;
    wb.comm = d2h.transfer_time(result_bytes);
    wb.comp = 0.0;
    wb.mem = result_bytes;
    wb.channel = kChannelD2H;
    wb.comm_bytes = result_bytes;  // write-backs are re-costable by size
    if (depend_on_producer) wb.deps.push_back(new_id[t.id]);
    wb.name = (t.name.empty() ? "T" + std::to_string(t.id) : t.name) + "_wb";
    tasks.push_back(std::move(wb));
  }
  return Instance(std::move(tasks));
}

Instance merged_channels(const Instance& inst) {
  std::vector<Task> tasks(inst.tasks());
  for (Task& t : tasks) t.channel = 0;
  return Instance(std::move(tasks));
}

Instance strip_comm_times(const Instance& inst) {
  std::vector<Task> tasks(inst.tasks());
  for (Task& t : tasks) {
    if (!t.has_comm_bytes()) {
      throw std::invalid_argument(
          "strip_comm_times: task '" +
          (t.name.empty() ? "T" + std::to_string(t.id) : t.name) +
          "' has no byte annotation; stripping its time would leave it "
          "uncostable");
    }
    t.comm = kUnboundTime;
  }
  return Instance(std::move(tasks));
}

}  // namespace dts
