// lint-as: src/core/validate.cpp
constexpr double kEps = 1e-9;
const double epsilon = std::numeric_limits<double>::epsilon();
