#include "service/result_cache.hpp"

#include <bit>

namespace dts {
namespace {

constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t chain(std::uint64_t state, std::uint64_t v) noexcept {
  return mix64(state ^ mix64(v + 0x2545f4914f6cdd1dULL));
}

std::uint64_t chain_string(std::uint64_t state, const std::string& s) noexcept {
  state = chain(state, s.size());
  for (unsigned char c : s) state = chain(state, c);
  return state;
}

/// Bytes an entry's order and stored schedule hold (what kMaxBytes bounds).
std::size_t payload_bytes(const CachedResult& r) noexcept {
  return r.canonical_order.size() * sizeof(TaskId) +
         (r.canonical_schedule ? r.canonical_schedule->size() : 0) *
             sizeof(TaskTimes);
}

}  // namespace

std::uint64_t request_digest(const RequestDigestInputs& in) {
  double capacity = in.capacity;
  if (capacity == 0.0) capacity = 0.0;  // folds -0.0
  std::uint64_t state = mix64(0x6474732d72640003ULL);  // "dts-rd"
  state = chain(state, std::bit_cast<std::uint64_t>(capacity));
  state = chain_string(state, in.solver);
  state = chain_string(state, in.machine);
  state = chain(state, in.seed);
  state = chain(state, in.max_iterations);
  state = chain(state, in.max_no_improve);
  state = chain(state, in.batch_size);
  return mix64(state);
}

std::optional<CachedResult> ResultCache::lookup(const CacheKey& key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++counters_.misses;
    return std::nullopt;
  }
  ++counters_.hits;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->result;
}

void ResultCache::insert(const CacheKey& key, CachedResult result) {
  if (capacity_ == 0) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  bytes_ += payload_bytes(result);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    bytes_ -= payload_bytes(it->second->result);
    it->second->result = std::move(result);
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    lru_.push_front(Entry{key, std::move(result)});
    index_.emplace(key, lru_.begin());
    ++counters_.inserts;
  }
  while (lru_.size() > 1 && (lru_.size() > capacity_ || bytes_ > kMaxBytes)) {
    bytes_ -= payload_bytes(lru_.back().result);
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++counters_.evictions;
  }
}

void ResultCache::note_coalesced() {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++counters_.coalesced;
}

ResultCache::Counters ResultCache::counters() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

std::size_t ResultCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return index_.size();
}

}  // namespace dts
