#pragma once

/// \file fingerprint.hpp
/// Canonical-instance fingerprints — the identity that makes solved
/// orders shareable between requests.
///
/// Problem DT is invariant under task *relabeling*: permuting the task
/// list or renaming tasks changes neither the feasible schedules nor the
/// optimal makespan. The service therefore keys its result cache on a
/// canonical form of the instance — the multiset of
/// (channel, comm, comp, mem, comm_bytes) tuples, independent of
/// submission order and of task names — so a million users submitting the
/// same HF/CCSD shape in a million different task orders all land on one
/// cache entry and pay one solve. A DAG additionally hashes its edges in
/// canonical slot space, so it never shares an entry with its edge-free
/// twin or with a DAG of different edges.
///
/// Two pieces:
///  * Fingerprint — a 128-bit content hash of the canonical task multiset
///    (plus the channel structure implied by the tasks, plus each slot's
///    sorted predecessor slots when the instance has dependency edges).
///    Equal edge-free instances up to permutation/relabeling hash equal;
///    byte-level differences in any duration, footprint, byte annotation
///    or channel, and adding or removing any edge, produce a different
///    fingerprint (pinned by tests/fingerprint_test.cpp over a seeded
///    corpus). Edge-free fingerprints do not depend on the edge rule.
///  * CanonicalInstance — the fingerprint plus the permutation that maps
///    canonical task slots back to this request's task ids. A cached
///    order lives in canonical slot space; `to_request_order` translates
///    it into the submitter's ids, and `to_canonical_order` translates a
///    freshly solved order into slot space for insertion.
///
/// The fingerprint deliberately hashes the *as-submitted* costing: a
/// bytes-only (time-less) trace fingerprints identically regardless of
/// the machine it will be bound to — machine identity joins the cache key
/// separately (see CacheKey in result_cache.hpp), and the cached order is
/// re-costed per machine via bind() at response time.

#include <cstdint>
#include <string>
#include <vector>

#include "core/instance.hpp"

namespace dts {

/// 128-bit content hash. Two independently seeded 64-bit mixing lanes:
/// collisions across realistic corpora are implausible (~2^-64 per pair
/// even for adversarial single-field perturbations).
struct Fingerprint {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  [[nodiscard]] bool operator==(const Fingerprint&) const = default;
  [[nodiscard]] bool operator<(const Fingerprint& o) const noexcept {
    return hi != o.hi ? hi < o.hi : lo < o.lo;
  }

  /// 32 lowercase hex digits (protocol/stats display).
  [[nodiscard]] std::string to_hex() const;
};

/// The canonical view of one request's instance: its fingerprint and the
/// slot <-> task-id mapping. Canonical slot k is the k-th task under the
/// canonical ordering (sorted by channel, comm, comp, mem, comm_bytes;
/// ties between indistinguishable tasks resolved by submission position).
/// On edge-free instances the tie-break never affects the fingerprint —
/// indistinguishable tasks are interchangeable in any schedule. On a DAG
/// it can: a relabeled resubmission may miss the cache, but equal
/// fingerprints always mean the slot mapping preserves every edge.
class CanonicalInstance {
 public:
  CanonicalInstance() = default;

  /// Canonicalizes `inst` with one sort. O(n log n + e log e).
  explicit CanonicalInstance(const Instance& inst);

  [[nodiscard]] const Fingerprint& fingerprint() const noexcept {
    return fingerprint_;
  }
  [[nodiscard]] std::size_t size() const noexcept {
    return canonical_to_request_.size();
  }

  /// The request task id occupying canonical slot `slot`.
  [[nodiscard]] TaskId request_id(TaskId slot) const {
    return canonical_to_request_.at(slot);
  }

  /// The canonical slot of request task `id`.
  [[nodiscard]] TaskId canonical_slot(TaskId id) const {
    return request_to_canonical_.at(id);
  }

  /// Translates an order over canonical slots into this request's ids.
  /// Throws std::invalid_argument when `slots` is not a permutation of
  /// this instance's slot range (a corrupt or foreign cache entry).
  [[nodiscard]] std::vector<TaskId> to_request_order(
      const std::vector<TaskId>& slots) const;

  /// Translates an order over this request's ids into canonical slots.
  [[nodiscard]] std::vector<TaskId> to_canonical_order(
      const std::vector<TaskId>& ids) const;

 private:
  Fingerprint fingerprint_;
  std::vector<TaskId> canonical_to_request_;  ///< slot -> request id
  std::vector<TaskId> request_to_canonical_;  ///< request id -> slot
};

/// Fingerprint without the mapping (corpus scans, quick identity checks).
[[nodiscard]] Fingerprint fingerprint_of(const Instance& inst);

}  // namespace dts
