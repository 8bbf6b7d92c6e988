// lint-as: src/heuristics/local_search.cpp
#include "support/tolerance.hpp"
bool improves(double ms, double best) { return definitely_less(ms, best); }
bool fits(double used, double mem, double capacity) {
  return approx_leq(used + mem, capacity);
}
const Machine link = affine_channel("link", 2.0e-6, 1.2e9);
bool sub_millisecond(double seconds) { return seconds < 1e-3; }
