#include "reduction/three_partition.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "core/validate.hpp"
#include "support/tolerance.hpp"

namespace dts {

std::int64_t ThreePartitionInstance::total() const noexcept {
  return std::accumulate(values.begin(), values.end(), std::int64_t{0});
}

std::int64_t ThreePartitionInstance::b() const noexcept {
  const std::size_t groups = m();
  return groups == 0 ? 0 : total() / static_cast<std::int64_t>(groups);
}

bool ThreePartitionInstance::well_formed() const noexcept {
  if (values.empty() || values.size() % 3 != 0) return false;
  if (std::any_of(values.begin(), values.end(),
                  [](std::int64_t v) { return v <= 0; })) {
    return false;
  }
  return total() % static_cast<std::int64_t>(m()) == 0;
}

namespace {

/// Recursive exact cover by triplets of sum b. Always groups the smallest
/// unused index with two larger ones, which prunes symmetric branches.
bool cover(const std::vector<std::int64_t>& values, std::int64_t b,
           std::vector<bool>& used, std::vector<Triplet>& out) {
  const std::size_t first =
      static_cast<std::size_t>(std::find(used.begin(), used.end(), false) -
                               used.begin());
  if (first == values.size()) return true;
  used[first] = true;
  for (std::size_t second = first + 1; second < values.size(); ++second) {
    if (used[second]) continue;
    const std::int64_t rest = b - values[first] - values[second];
    if (rest <= 0) continue;
    used[second] = true;
    for (std::size_t third = second + 1; third < values.size(); ++third) {
      if (used[third] || values[third] != rest) continue;
      used[third] = true;
      out.push_back(Triplet{first, second, third});
      if (cover(values, b, used, out)) return true;
      out.pop_back();
      used[third] = false;
    }
    used[second] = false;
  }
  used[first] = false;
  return false;
}

}  // namespace

std::optional<std::vector<Triplet>> solve_three_partition(
    const ThreePartitionInstance& input) {
  if (!input.well_formed()) return std::nullopt;
  std::vector<bool> used(input.values.size(), false);
  std::vector<Triplet> out;
  out.reserve(input.m());
  if (cover(input.values, input.b(), used, out)) return out;
  return std::nullopt;
}

DtReduction reduce_to_dt(const ThreePartitionInstance& input) {
  if (!input.well_formed()) {
    throw std::invalid_argument("reduce_to_dt: malformed 3-Partition instance");
  }
  DtReduction red;
  red.m = input.m();
  red.b = input.b();
  red.x = *std::max_element(input.values.begin(), input.values.end());
  red.b_prime = red.b + 6 * red.x;

  const auto bp = static_cast<Time>(red.b_prime);
  std::vector<Task> tasks;
  tasks.reserve(4 * red.m + 1);
  // K_0: comm 0, comp 3. K_1..K_{m-1}: comm b', comp 3. K_m: comm b', comp 0.
  // Memory requirement equals communication time (Table 1's convention).
  tasks.push_back(Task{.id = 0, .comm = 0.0, .comp = 3.0, .mem = 0.0, .name = "K0"});
  for (std::size_t s = 1; s < red.m; ++s) {
    tasks.push_back(Task{.id = 0, .comm = bp, .comp = 3.0, .mem = bp,
                         .name = "K" + std::to_string(s)});
  }
  tasks.push_back(Task{.id = 0, .comm = bp, .comp = 0.0, .mem = bp,
                       .name = "K" + std::to_string(red.m)});
  // A_i: comm 1, comp a'_i = a_i + 2x, memory 1.
  for (std::size_t i = 0; i < input.values.size(); ++i) {
    const auto comp = static_cast<Time>(input.values[i] + 2 * red.x);
    tasks.push_back(Task{.id = 0, .comm = 1.0, .comp = comp, .mem = 1.0,
                         .name = "A" + std::to_string(i)});
  }
  red.instance = Instance(std::move(tasks));
  red.capacity = bp + 3.0;
  red.target = static_cast<Time>(red.m) * (bp + 3.0);
  return red;
}

Schedule schedule_from_partition(const DtReduction& red,
                                 const std::vector<Triplet>& triplets) {
  if (triplets.size() != red.m) {
    throw std::invalid_argument(
        "schedule_from_partition: need exactly m triplets");
  }
  Schedule sched(red.instance.size());
  const Time segment = static_cast<Time>(red.b_prime) + 3.0;

  // K_0 transfers instantly and computes during the first triplet's
  // transfers; K_s (s >= 1) transfers during segment s's computations and
  // computes at the start of segment s+1.
  sched.set(red.k_task(0), 0.0, 0.0);
  for (std::size_t s = 1; s <= red.m; ++s) {
    const Time seg_start = static_cast<Time>(s - 1) * segment;
    sched.set(red.k_task(s), seg_start + 3.0, seg_start + segment);
  }

  for (std::size_t s = 0; s < red.m; ++s) {
    const Time seg_start = static_cast<Time>(s) * segment;
    // The triplet's three transfers run during K_{s}'s computation slot
    // [seg_start, seg_start+3); its computations fill K_{s+1}'s transfer
    // window [seg_start+3, seg_start+3+b') exactly.
    Time comp_cursor = seg_start + 3.0;
    for (std::size_t k = 0; k < 3; ++k) {
      const TaskId a = red.a_task(triplets[s][k]);
      sched.set(a, seg_start + static_cast<Time>(k), comp_cursor);
      comp_cursor += red.instance[a].comp;
    }
  }
  return sched;
}

std::optional<std::vector<Triplet>> partition_from_schedule(
    const DtReduction& red, const Schedule& sched) {
  if (sched.size() != red.instance.size() || !sched.complete()) {
    return std::nullopt;
  }
  if (definitely_less(red.target, sched.makespan(red.instance))) {
    return std::nullopt;
  }
  if (!validate_schedule(red.instance, sched, red.capacity).ok()) {
    return std::nullopt;
  }

  // Triplet s = the A tasks whose computation starts inside K_{s+1}'s
  // communication window.
  std::vector<std::vector<std::size_t>> groups(red.m);
  for (std::size_t i = 0; i < 3 * red.m; ++i) {
    const TaskId a = red.a_task(i);
    const Time comp_start = sched[a].comp_start;
    bool placed = false;
    for (std::size_t s = 1; s <= red.m; ++s) {
      const Time win_start = sched[red.k_task(s)].comm_start;
      const Time win_end = win_start + red.instance[red.k_task(s)].comm;
      if (approx_leq(win_start, comp_start) &&
          definitely_less(comp_start, win_end)) {
        groups[s - 1].push_back(i);
        placed = true;
        break;
      }
    }
    if (!placed) return std::nullopt;
  }

  std::vector<Triplet> result;
  result.reserve(red.m);
  for (const auto& g : groups) {
    if (g.size() != 3) return std::nullopt;
    // Each group must be a genuine triplet of sum b (equivalently the
    // computations sum to b' = b + 6x).
    Time comp_sum = 0.0;
    for (std::size_t i : g) comp_sum += red.instance[red.a_task(i)].comp;
    if (!approx_equal(comp_sum, static_cast<Time>(red.b_prime))) {
      return std::nullopt;
    }
    result.push_back(Triplet{g[0], g[1], g[2]});
  }
  return result;
}

}  // namespace dts
