#pragma once

/// \file transfer_model.hpp
/// First-class transfer performance models: bytes -> seconds, the paper's
/// §3 contribution. A TransferModel predicts the occupancy time of one
/// copy engine for a message of a given size. The affine form
/// (latency + bytes / bandwidth) is the paper's calibrated fit; the
/// piecewise-linear form captures its measured small/large-message
/// regimes (eager vs. rendezvous protocols switch the curve's slope and
/// intercept at a protocol threshold).
///
/// affine_transfer_time() below is the ONE implementation of the affine
/// map in the library: AffineTransferModel delegates to it, and the trace
/// generators and bind() both cost transfers through a Machine's channel
/// models (model/machine.hpp), so generation-time and bind()-time costing
/// can never drift apart — the bit-for-bit parity the golden tests pin
/// depends on every caller evaluating the exact same expression.

#include <string>
#include <vector>

#include "core/types.hpp"

namespace dts {

/// The affine bytes -> seconds map of the paper (§3): a per-transfer
/// startup latency plus the size over the asymptotic bandwidth. Every
/// affine costing path in the library funnels through this expression.
[[nodiscard]] constexpr Time affine_transfer_time(double latency,
                                                  double bandwidth,
                                                  double bytes) noexcept {
  return latency + bytes / bandwidth;
}

/// A calibratable performance model for one copy engine. Implementations
/// are immutable and therefore safe to share across threads.
class TransferModel {
 public:
  virtual ~TransferModel() = default;

  /// Predicted time to move `bytes` (>= 0) across the engine.
  [[nodiscard]] virtual Time transfer_time(double bytes) const noexcept = 0;

  /// One-line human-readable description of the fitted parameters,
  /// e.g. "affine(latency=2e-06s, bandwidth=1.2e+09B/s)".
  [[nodiscard]] virtual std::string describe() const = 0;

  /// Effective asymptotic bandwidth (bytes/s) — the slope of the
  /// large-message regime. Machine what-if sweeps scale it.
  [[nodiscard]] virtual double asymptotic_bandwidth() const noexcept = 0;

  /// Zero-byte intercept (s) — the small-message startup cost.
  [[nodiscard]] virtual double zero_byte_latency() const noexcept = 0;
};

/// The paper's calibrated model: transfer_time = latency + bytes/bandwidth.
class AffineTransferModel final : public TransferModel {
 public:
  /// Throws std::invalid_argument for non-finite or negative latency and
  /// non-finite or non-positive bandwidth.
  AffineTransferModel(double latency, double bandwidth);

  [[nodiscard]] Time transfer_time(double bytes) const noexcept override {
    return affine_transfer_time(latency_, bandwidth_, bytes);
  }
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] double asymptotic_bandwidth() const noexcept override {
    return bandwidth_;
  }
  [[nodiscard]] double zero_byte_latency() const noexcept override {
    return latency_;
  }

 private:
  double latency_;
  double bandwidth_;
};

/// Piecewise-linear model for measured curves with distinct message-size
/// regimes (the paper's plots show the small-message/eager and
/// large-message/rendezvous protocols as different affine branches).
/// Each segment is affine from its threshold upward; the active segment
/// is the last one whose min_bytes <= bytes.
class PiecewiseTransferModel final : public TransferModel {
 public:
  struct Segment {
    double min_bytes = 0.0;  ///< first size (inclusive) this regime covers
    double latency = 0.0;
    double bandwidth = 1.0;
  };

  /// Throws std::invalid_argument when segments are empty, not strictly
  /// increasing in min_bytes, the first does not start at 0, or any
  /// segment has invalid latency/bandwidth.
  explicit PiecewiseTransferModel(std::vector<Segment> segments);

  [[nodiscard]] Time transfer_time(double bytes) const noexcept override;
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] double asymptotic_bandwidth() const noexcept override {
    return segments_.back().bandwidth;
  }
  [[nodiscard]] double zero_byte_latency() const noexcept override {
    return segments_.front().latency;
  }

  [[nodiscard]] const std::vector<Segment>& segments() const noexcept {
    return segments_;
  }

 private:
  std::vector<Segment> segments_;
};

}  // namespace dts
