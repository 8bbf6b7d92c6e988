#include "heuristics/static_orders.hpp"

#include <algorithm>

#include "core/johnson.hpp"

namespace dts {

std::vector<TaskId> static_order(const Instance& inst,
                                 StaticOrderPolicy policy) {
  std::vector<TaskId> order = inst.submission_order();
  const auto key_sort = [&](auto key, bool increasing) {
    std::stable_sort(order.begin(), order.end(), [&](TaskId a, TaskId b) {
      return increasing ? key(inst[a]) < key(inst[b])
                        : key(inst[a]) > key(inst[b]);
    });
  };
  switch (policy) {
    case StaticOrderPolicy::kSubmission:
      break;
    case StaticOrderPolicy::kJohnson:
      order = johnson_order(inst);
      break;
    case StaticOrderPolicy::kIncreasingComm:
      key_sort([](const Task& t) { return t.comm; }, /*increasing=*/true);
      break;
    case StaticOrderPolicy::kDecreasingComp:
      key_sort([](const Task& t) { return t.comp; }, /*increasing=*/false);
      break;
    case StaticOrderPolicy::kIncreasingCommPlusComp:
      key_sort([](const Task& t) { return t.total_time(); }, /*increasing=*/true);
      break;
    case StaticOrderPolicy::kDecreasingCommPlusComp:
      key_sort([](const Task& t) { return t.total_time(); }, /*increasing=*/false);
      break;
  }
  return order;
}

std::string_view to_acronym(StaticOrderPolicy policy) noexcept {
  switch (policy) {
    case StaticOrderPolicy::kSubmission: return "OS";
    case StaticOrderPolicy::kJohnson: return "OOSIM";
    case StaticOrderPolicy::kIncreasingComm: return "IOCMS";
    case StaticOrderPolicy::kDecreasingComp: return "DOCPS";
    case StaticOrderPolicy::kIncreasingCommPlusComp: return "IOCCS";
    case StaticOrderPolicy::kDecreasingCommPlusComp: return "DOCCS";
  }
  return "?";
}

}  // namespace dts
