#pragma once

/// \file types.hpp
/// Fundamental scalar types of the data-transfer scheduling model.
///
/// Times and memory requirements are doubles: the paper's own examples use
/// fractional durations (Table 2 has computation times of 0.5), and traces
/// measured from real runs are floating point. All comparisons that decide
/// feasibility go through the epsilon helpers below so that schedules
/// assembled from sums of doubles validate cleanly.

#include <cstdint>
#include <limits>

namespace dts {

/// A point in (virtual) time or a duration, in seconds.
using Time = double;

/// A memory quantity, in bytes. Double rather than an integer type because
/// the paper's examples use "memory requirement = communication time" with
/// unit-free fractional values; real traces store whole bytes exactly
/// (doubles are exact for integers < 2^53 ~ 8 PiB).
using Mem = double;

/// Index of a task within its Instance.
using TaskId = std::uint32_t;

/// Sentinel for "no task".
inline constexpr TaskId kInvalidTask = std::numeric_limits<TaskId>::max();

/// Index of a copy engine (transfer channel) among a Machine's channels
/// (model/machine.hpp). Each Task names the channel its transfer occupies;
/// the engine keeps one availability clock per channel, so transfers on
/// distinct channels overlap while transfers sharing one serialize. The
/// paper's testbed has a single half-duplex link (channel 0); CPU<->GPU
/// offload adds one engine per direction.
using ChannelId = std::uint32_t;

/// The single link of the paper's model, and the host-to-device engine of
/// a duplex machine.
inline constexpr ChannelId kChannelH2D = 0;

/// The device-to-host copy engine of a duplex machine (result write-back
/// traffic).
inline constexpr ChannelId kChannelD2H = 1;

/// Upper bound (exclusive) on channel ids a valid Task may name —
/// generous for any realistic machine, and small enough that the
/// per-channel vectors sized from `max channel + 1` stay cheap even for
/// adversarial inputs.
inline constexpr ChannelId kMaxChannels = 256;

/// Positive infinity, used for unbounded memory capacities and as the
/// identity of min-reductions over makespans.
inline constexpr Time kInfiniteTime = std::numeric_limits<Time>::infinity();
inline constexpr Mem kInfiniteMem = std::numeric_limits<Mem>::infinity();

/// Sentinel comm value of a *time-less* task: the transfer's size is known
/// (Task::comm_bytes) but no machine has costed it yet. Such tasks are
/// only valid carriers between trace IO and bind(); solve() refuses to
/// schedule them without a machine.
inline constexpr Time kUnboundTime = -1.0;

/// Sentinel for Task::comm_bytes when the transfer size is unknown (the
/// task only carries a measured time, as in v1/v2 traces).
inline constexpr double kUnknownBytes = -1.0;

/// Absolute slack used by feasibility checks. Schedules are built from
/// short chains of additions, so accumulated error is tiny; the validator
/// additionally scales this by the magnitude of the quantities compared.
inline constexpr double kEps = 1e-9;

/// a < b beyond floating-point noise. Infinities behave exactly
/// (definitely_less(x, +inf) is true for any finite x); without the
/// explicit branch the scaled epsilon would produce inf - inf = NaN.
[[nodiscard]] constexpr bool definitely_less(double a, double b) noexcept {
  if (!(a < b)) return false;
  const double scale = 1.0 + (a < 0 ? -a : a) + (b < 0 ? -b : b);
  if (scale == std::numeric_limits<double>::infinity()) return true;
  return a < b - kEps * scale;
}

/// a <= b up to floating-point noise.
[[nodiscard]] constexpr bool approx_leq(double a, double b) noexcept {
  return !definitely_less(b, a);
}

/// |a - b| within floating-point noise.
[[nodiscard]] constexpr bool approx_equal(double a, double b) noexcept {
  return approx_leq(a, b) && approx_leq(b, a);
}

}  // namespace dts
