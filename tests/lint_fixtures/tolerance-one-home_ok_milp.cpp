// lint-as: src/milp/simplex.cpp
constexpr double kTol = 1e-9;
bool fractional(double x) { return std::abs(x - std::round(x)) > 1e-6; }
