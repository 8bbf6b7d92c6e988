#include "heuristics/bin_packing.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "support/tolerance.hpp"

namespace dts {

std::vector<std::vector<TaskId>> first_fit_bins(const Instance& inst,
                                                Mem capacity) {
  // Max-residual segment tree over bin slots (at most one bin per task;
  // unopened slots hold -inf). approx_leq(mem, residual) is monotone in
  // the residual, so the leftmost bin that holds a task is found by
  // descending into the leftmost child whose maximum holds it — the same
  // bin the linear First-Fit scan stops at, in O(log n).
  std::size_t leaves = 1;
  while (leaves < inst.size()) leaves *= 2;
  std::vector<Mem> max_residual(2 * leaves,
                                -std::numeric_limits<Mem>::infinity());
  std::vector<std::vector<TaskId>> bins;
  for (const Task& t : inst) {
    if (definitely_less(capacity, t.mem)) {
      throw std::invalid_argument("first_fit_bins: task " +
                                  std::to_string(t.id) +
                                  " exceeds the bin capacity");
    }
    std::size_t k = 1;
    if (approx_leq(t.mem, max_residual[1])) {
      while (k < leaves) {
        k = approx_leq(t.mem, max_residual[2 * k]) ? 2 * k : 2 * k + 1;
      }
      bins[k - leaves].push_back(t.id);
      max_residual[k] -= t.mem;
    } else {
      k = leaves + bins.size();
      bins.push_back({t.id});
      max_residual[k] = capacity - t.mem;
    }
    for (k /= 2; k >= 1; k /= 2) {
      max_residual[k] = std::max(max_residual[2 * k], max_residual[2 * k + 1]);
    }
  }
  return bins;
}

std::vector<TaskId> bin_packing_order(const Instance& inst, Mem capacity) {
  std::vector<TaskId> order;
  order.reserve(inst.size());
  for (const auto& bin : first_fit_bins(inst, capacity)) {
    order.insert(order.end(), bin.begin(), bin.end());
  }
  return order;
}

}  // namespace dts
