#pragma once

/// \file result_cache.hpp
/// LRU-bounded cache of solved canonical orders.
///
/// What gets cached is machine-portable: the winning *order* in canonical
/// slot space (plus the winner's name and the solve's evaluation count),
/// not the timed schedule of any particular request. A warm request
/// re-derives its schedule by simulating that order on its own bound
/// instance — identical task values mean the simulation reproduces the
/// original solver's schedule bit-for-bit (semi-active permutation
/// schedules are a pure function of order x instance x capacity). For
/// the rare solver whose schedule is *not* reproducible by replaying its
/// comm order (corrections-style idle insertion), the insert path detects
/// the mismatch and stores the canonical-space schedule verbatim, so warm
/// responses remain bitwise identical to cold ones unconditionally.
///
/// Keys pair the instance fingerprint with a digest of every
/// result-affecting request knob (capacity, solver, machine, seed,
/// iteration limits, batch size): two requests share an entry iff a fresh
/// solve would provably produce the same result.

#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/schedule.hpp"
#include "core/types.hpp"
#include "service/fingerprint.hpp"

namespace dts {

/// Identity of a cache entry: which canonical instance, solved how.
struct CacheKey {
  Fingerprint fingerprint;
  std::uint64_t request_digest = 0;

  [[nodiscard]] bool operator==(const CacheKey&) const = default;
  [[nodiscard]] bool operator<(const CacheKey& o) const noexcept {
    if (!(fingerprint == o.fingerprint)) return fingerprint < o.fingerprint;
    return request_digest < o.request_digest;
  }
};

/// Inputs that join the fingerprint in the cache key. Everything here can
/// change the solved order, so everything here splits the cache. The MILP
/// backend's result-affecting knobs are covered: its grid resolution
/// rides in the solver string ("milp:8" != "milp"), and its node budget
/// is SolveOptions::max_iterations — a budget-stopped search's incumbent
/// depends on both, so warm hits stay bitwise-correct across them.
struct RequestDigestInputs {
  Mem capacity = 0.0;
  std::string solver;
  std::string machine;  ///< Empty when the request was already time-bound.
  std::uint64_t seed = 0;
  std::uint64_t max_iterations = 0;
  std::uint64_t max_no_improve = 0;
  /// Batch size, or ~0ULL when the request is unbatched.
  std::uint64_t batch_size = ~0ULL;
};

[[nodiscard]] std::uint64_t request_digest(const RequestDigestInputs& in);

/// One cached solve, in canonical slot space.
struct CachedResult {
  std::vector<TaskId> canonical_order;  ///< Winner's comm order, slot space.
  std::string winner;                   ///< Registry name of the winner.
  Time makespan = 0.0;
  std::uint64_t evaluations = 0;
  /// Optimality certificate of the original solve — makespans (and the
  /// bounds behind them) are canonicalization-invariant, so a warm hit
  /// replays them verbatim.
  bool proved_optimal = false;
  Time lower_bound = 0.0;
  /// Only set when replaying canonical_order does not reproduce the
  /// solver's schedule (non-semi-active winners): start times indexed by
  /// canonical slot, translated back per request at hit time.
  std::optional<std::vector<TaskTimes>> canonical_schedule;
};

/// Thread-safe LRU map CacheKey -> CachedResult, bounded by entry count
/// and by the bytes its orders and schedules hold (kMaxBytes).
/// All counters are cumulative since construction; `coalesced` is owned
/// by the service's single-flight layer but lives here so one stats call
/// reports the full hits + misses + coalesced reconciliation.
class ResultCache {
 public:
  /// Bound on the bytes of canonical orders and stored schedules held at
  /// once (4 MiB: a million order slots). The entry count alone does not
  /// bound memory — a stream of distinct 8000-task instances holds 32 KB
  /// per entry — and a faster solver fills the cache faster.
  static constexpr std::size_t kMaxBytes = std::size_t{4} << 20;

  struct Counters {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t inserts = 0;
    std::uint64_t evictions = 0;
    std::uint64_t coalesced = 0;
  };

  /// `capacity` = max resident entries; 0 disables caching (every lookup
  /// misses, inserts are dropped) — useful for A/B benching.
  explicit ResultCache(std::size_t capacity) : capacity_(capacity) {}

  /// Probe; counts a hit or a miss and refreshes LRU recency on hit.
  [[nodiscard]] std::optional<CachedResult> lookup(const CacheKey& key);

  /// Inserts (or refreshes) an entry, evicting least-recently-used
  /// entries while either bound is exceeded (the newest entry always
  /// stays).
  void insert(const CacheKey& key, CachedResult result);

  /// Single-flight followers report here (see class comment).
  void note_coalesced();

  [[nodiscard]] Counters counters() const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  struct Entry {
    CacheKey key;
    CachedResult result;
  };

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::list<Entry> lru_;  ///< Front = most recently used.
  std::map<CacheKey, std::list<Entry>::iterator> index_;
  std::size_t bytes_ = 0;  ///< order and schedule bytes of resident entries
  Counters counters_;
};

}  // namespace dts
