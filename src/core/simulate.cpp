#include "core/simulate.hpp"

#include <stdexcept>

#include "core/compiled.hpp"

namespace dts {

Schedule simulate_order(const Instance& inst, std::span<const TaskId> order,
                        Mem capacity) {
  if (order.size() != inst.size()) {
    throw std::invalid_argument("simulate_order: order must cover all tasks");
  }
  const CompiledInstance ci(inst);
  Engine engine;
  Schedule sched(inst.size());
  evaluate_order(ci, order, capacity, engine, sched);
  return sched;
}

Time makespan_of_order(const Instance& inst, std::span<const TaskId> order,
                       Mem capacity) {
  if (order.size() != inst.size()) {
    throw std::invalid_argument("simulate_order: order must cover all tasks");
  }
  const CompiledInstance ci(inst);
  Engine engine;
  return evaluate_order(ci, order, capacity, engine);
}

}  // namespace dts
