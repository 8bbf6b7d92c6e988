#pragma once

/// \file tolerance.hpp
/// The library's one tolerance policy: the comparisons that decide
/// feasibility, ties and improvements on times and memory amounts.
///
/// Every comparison is purely relative, with no absolute floor, so its
/// answer does not depend on the unit of time or memory: scaling both
/// sides by a power of two (exact in floating point) gives the same answer
/// bit for bit. The tolerance absorbs the rounding of schedules assembled
/// from sums of doubles; it never admits a transfer early, because the
/// timing engine releases memory at exact computation ends
/// (core/compiled.hpp). The dts-lint rule `tolerance-one-home` keeps other
/// epsilons out of src/.

#include <limits>

namespace dts {

namespace detail {
/// Relative gap below which two values count as equal: far above the
/// rounding of short chains of additions, far below any duration
/// difference a schedule can act on.
inline constexpr double kRelativeTolerance = 1e-9;
}  // namespace detail

/// a < b beyond floating-point noise: b - a exceeds the relative tolerance
/// times |a| + |b|. Infinities behave exactly (definitely_less(x, +inf) is
/// true for any finite x); NaN compares false.
[[nodiscard]] constexpr bool definitely_less(double a, double b) noexcept {
  if (!(a < b)) return false;
  const double scale = (a < 0 ? -a : a) + (b < 0 ? -b : b);
  if (scale == std::numeric_limits<double>::infinity()) return true;
  return a < b - detail::kRelativeTolerance * scale;
}

/// a <= b up to floating-point noise.
[[nodiscard]] constexpr bool approx_leq(double a, double b) noexcept {
  return !definitely_less(b, a);
}

/// a == b up to floating-point noise.
[[nodiscard]] constexpr bool approx_equal(double a, double b) noexcept {
  return approx_leq(a, b) && approx_leq(b, a);
}

}  // namespace dts
