// lint-as: src/heuristics/hot_fixture.cpp
// Violation: a marked selection query in src/heuristics/ that grows a
// buffer per pick — the rule watches the selection loops too.

#include <cstddef>
#include <vector>

namespace dts {

struct BadIndex {
  std::vector<std::size_t> slots;

  // dts-lint: hot-path
  std::size_t pick(std::size_t n) {
    slots.resize(n);
    return slots.empty() ? 0 : slots.front();
  }
};

}  // namespace dts
