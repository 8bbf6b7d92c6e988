#include "threestage/three_stage.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "support/tolerance.hpp"

namespace dts {

ThreeStageInstance::ThreeStageInstance(std::vector<StagedTask> tasks)
    : tasks_(std::move(tasks)) {
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    StagedTask& t = tasks_[i];
    const bool valid = t.in_comm >= 0.0 && t.comp >= 0.0 && t.out_comm >= 0.0 &&
                       t.in_mem >= 0.0 && t.out_mem >= 0.0;
    if (!valid) {
      throw std::invalid_argument(
          "ThreeStageInstance: negative field in task " + std::to_string(i));
    }
    t.id = static_cast<TaskId>(i);
  }
}

Mem ThreeStageInstance::min_capacity() const noexcept {
  Mem mc = 0.0;
  for (const StagedTask& t : tasks_) mc = std::max(mc, t.total_mem());
  return mc;
}

std::vector<TaskId> ThreeStageInstance::submission_order() const {
  std::vector<TaskId> order(tasks_.size());
  std::iota(order.begin(), order.end(), TaskId{0});
  return order;
}

Time ThreeStageSchedule::makespan(const ThreeStageInstance& inst) const {
  if (inst.size() != times_.size()) {
    throw std::invalid_argument("ThreeStageSchedule::makespan: size mismatch");
  }
  Time end = 0.0;
  for (TaskId i = 0; i < times_.size(); ++i) {
    if (!times_[i].scheduled()) {
      throw std::logic_error("ThreeStageSchedule::makespan: task " +
                             std::to_string(i) + " unscheduled");
    }
    end = std::max(end, times_[i].out_start + inst[i].out_comm);
  }
  return end;
}

ThreeStageSchedule simulate_three_stage(const ThreeStageInstance& inst,
                                        std::span<const TaskId> order,
                                        Mem capacity) {
  if (order.size() != inst.size()) {
    throw std::invalid_argument(
        "simulate_three_stage: order must cover all tasks");
  }
  ThreeStageSchedule sched(inst.size());

  Time in_free = 0.0;
  Time proc_free = 0.0;
  Time out_free = 0.0;
  // Pending releases: (instant, bytes). Small n per call; linear scans.
  // Memory is released at its exact instant, as in the timing engine.
  std::vector<std::pair<Time, Mem>> releases;
  Mem used = 0.0;

  const auto used_at = [&](Time t) {
    Mem u = used;
    for (const auto& [end, mem] : releases) {
      if (end <= t) u -= mem;
    }
    return u;
  };
  const auto commit_until = [&](Time t) {
    std::erase_if(releases, [&](const std::pair<Time, Mem>& r) {
      if (r.first <= t) {
        used -= r.second;
        return true;
      }
      return false;
    });
  };

  for (TaskId id : order) {
    const StagedTask& t = inst[id];
    if (definitely_less(capacity, t.total_mem())) {
      throw std::invalid_argument("simulate_three_stage: task " +
                                  std::to_string(id) +
                                  " exceeds the memory capacity");
    }
    // Earliest stage-1 start: in-link free and both buffers fit.
    Time start = in_free;
    if (!approx_leq(used_at(start) + t.total_mem(), capacity)) {
      std::vector<Time> candidates;
      for (const auto& [end, mem] : releases) {
        (void)mem;
        if (start < end) candidates.push_back(end);
      }
      std::sort(candidates.begin(), candidates.end());
      bool placed = false;
      for (Time c : candidates) {
        if (approx_leq(used_at(c) + t.total_mem(), capacity)) {
          start = c;
          placed = true;
          break;
        }
      }
      if (!placed) {
        throw std::logic_error(
            "simulate_three_stage: no feasible start found (internal)");
      }
    }
    commit_until(start);

    StagedTimes times;
    times.in_start = start;
    const Time in_end = start + t.in_comm;
    times.comp_start = std::max(in_end, proc_free);
    const Time comp_end = times.comp_start + t.comp;
    times.out_start = std::max(comp_end, out_free);
    const Time out_end = times.out_start + t.out_comm;

    used += t.total_mem();
    releases.emplace_back(comp_end, t.in_mem);
    releases.emplace_back(out_end, t.out_mem);

    in_free = in_end;
    proc_free = comp_end;
    out_free = out_end;
    sched.set(id, times);
  }
  return sched;
}

Time three_stage_makespan(const ThreeStageInstance& inst,
                          std::span<const TaskId> order, Mem capacity) {
  return simulate_three_stage(inst, order, capacity).makespan(inst);
}

std::vector<TaskId> johnson3_order(const ThreeStageInstance& inst) {
  // Surrogate 2-machine times: a_i = in + comp, b_i = comp + out.
  std::vector<TaskId> s1;
  std::vector<TaskId> s2;
  for (const StagedTask& t : inst) {
    const Time a = t.in_comm + t.comp;
    const Time b = t.comp + t.out_comm;
    (b >= a ? s1 : s2).push_back(t.id);
  }
  std::stable_sort(s1.begin(), s1.end(), [&](TaskId x, TaskId y) {
    return inst[x].in_comm + inst[x].comp < inst[y].in_comm + inst[y].comp;
  });
  std::stable_sort(s2.begin(), s2.end(), [&](TaskId x, TaskId y) {
    return inst[x].comp + inst[x].out_comm > inst[y].comp + inst[y].out_comm;
  });
  s1.insert(s1.end(), s2.begin(), s2.end());
  return s1;
}

ThreeStageBounds three_stage_bounds(const ThreeStageInstance& inst) {
  ThreeStageBounds b;
  if (inst.empty()) return b;
  Time sum_in = 0.0, sum_comp = 0.0, sum_out = 0.0;
  Time min_in = kInfiniteTime, min_out = kInfiniteTime;
  Time min_tail = kInfiniteTime, min_head = kInfiniteTime;
  for (const StagedTask& t : inst) {
    sum_in += t.in_comm;
    sum_comp += t.comp;
    sum_out += t.out_comm;
    min_in = std::min(min_in, t.in_comm);
    min_out = std::min(min_out, t.out_comm);
    min_tail = std::min(min_tail, t.comp + t.out_comm);
    min_head = std::min(min_head, t.in_comm + t.comp);
  }
  b.in_link_load = sum_in + min_tail;
  b.proc_load = min_in + sum_comp + min_out;
  b.out_link_load = min_head + sum_out;
  b.combined = std::max({b.in_link_load, b.proc_load, b.out_link_load});
  return b;
}

std::string validate_three_stage(const ThreeStageInstance& inst,
                                 const ThreeStageSchedule& sched,
                                 Mem capacity) {
  if (sched.size() != inst.size()) return "size mismatch";
  std::ostringstream os;

  // Per-task precedence.
  for (TaskId i = 0; i < inst.size(); ++i) {
    const StagedTimes& t = sched[i];
    if (!t.scheduled()) {
      os << "task " << i << " unscheduled";
      return os.str();
    }
    if (definitely_less(t.comp_start, t.in_start + inst[i].in_comm)) {
      os << "task " << i << " computes before its input arrives";
      return os.str();
    }
    if (definitely_less(t.out_start, t.comp_start + inst[i].comp)) {
      os << "task " << i << " downloads before its computation ends";
      return os.str();
    }
  }

  // Resource exclusivity: sort by start per resource, check neighbours.
  const auto check = [&](auto start_of, auto len_of, const char* what) {
    std::vector<TaskId> ids(inst.size());
    std::iota(ids.begin(), ids.end(), TaskId{0});
    std::sort(ids.begin(), ids.end(), [&](TaskId a, TaskId b) {
      if (start_of(a) != start_of(b)) return start_of(a) < start_of(b);
      return start_of(a) + len_of(a) < start_of(b) + len_of(b);
    });
    for (std::size_t k = 1; k < ids.size(); ++k) {
      const Time prev_end = start_of(ids[k - 1]) + len_of(ids[k - 1]);
      if (definitely_less(start_of(ids[k]), prev_end)) {
        os << what << " overlap between tasks " << ids[k - 1] << " and "
           << ids[k];
        return false;
      }
    }
    return true;
  };
  if (!check([&](TaskId i) { return sched[i].in_start; },
             [&](TaskId i) { return inst[i].in_comm; }, "H2D link")) {
    return os.str();
  }
  if (!check([&](TaskId i) { return sched[i].comp_start; },
             [&](TaskId i) { return inst[i].comp; }, "processor")) {
    return os.str();
  }
  if (!check([&](TaskId i) { return sched[i].out_start; },
             [&](TaskId i) { return inst[i].out_comm; }, "D2H link")) {
    return os.str();
  }

  // Memory envelope: +total at in_start; -in_mem at comp end; -out_mem at
  // download end. Releases before acquisitions at equal instants.
  struct Event {
    Time t;
    Mem delta;
  };
  std::vector<Event> events;
  for (TaskId i = 0; i < inst.size(); ++i) {
    const StagedTimes& t = sched[i];
    events.push_back({t.in_start, inst[i].total_mem()});
    events.push_back({t.comp_start + inst[i].comp, -inst[i].in_mem});
    events.push_back({t.out_start + inst[i].out_comm, -inst[i].out_mem});
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.t != b.t) return a.t < b.t;
    return a.delta < b.delta;
  });
  Mem use = 0.0;
  for (const Event& e : events) {
    use += e.delta;
    if (definitely_less(capacity, use)) {
      os << "memory envelope exceeds capacity at t=" << e.t << " (" << use
         << " > " << capacity << ")";
      return os.str();
    }
  }
  return {};
}

}  // namespace dts
