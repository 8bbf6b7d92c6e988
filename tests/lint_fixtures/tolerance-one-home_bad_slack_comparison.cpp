// lint-as: src/exact/branch_bound.cpp
bool earlier(double a, double b) { return a < b - 1e-9; }
bool same(double a, double b) { return std::abs(a - b) <= 1e-12; }
