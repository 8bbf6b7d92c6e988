#include "service/fingerprint.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <tuple>

namespace dts {
namespace {

/// Bit pattern of a double with -0.0 folded onto +0.0 so that two
/// instances differing only in the sign of a zero (which cannot affect
/// any schedule) fingerprint identically. NaNs cannot reach here —
/// Instance construction rejects non-finite fields.
std::uint64_t double_bits(double v) noexcept {
  if (v == 0.0) v = 0.0;  // folds -0.0
  return std::bit_cast<std::uint64_t>(v);
}

/// SplitMix64 finalizer — the same mixer the repo's Rng builds on.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// One 64-bit lane of the multiset hash. Each task contributes a value
/// derived from its canonical tuple; lanes differ by seed so the two
/// halves of the 128-bit fingerprint are independent. Tasks are combined
/// in canonical (sorted) order with a position-sensitive chain, which is
/// permutation-invariant because the order itself is canonical.
class HashLane {
 public:
  explicit HashLane(std::uint64_t seed) : state_(mix64(seed)) {}

  void absorb(std::uint64_t v) noexcept {
    state_ = mix64(state_ ^ mix64(v + 0x2545f4914f6cdd1dULL));
  }

  [[nodiscard]] std::uint64_t digest() const noexcept { return mix64(state_); }

 private:
  std::uint64_t state_;
};

/// The canonical value tuple of a task: everything schedule-relevant,
/// nothing label-like (name excluded). `id` only breaks ties between
/// indistinguishable tasks when sorting; it is never hashed.
struct TaskKey {
  ChannelId channel;
  std::uint64_t comm;
  std::uint64_t comp;
  std::uint64_t mem;
  std::uint64_t bytes;
  TaskId id;

  explicit TaskKey(const Task& t)
      : channel(t.channel),
        comm(double_bits(t.comm)),
        comp(double_bits(t.comp)),
        mem(double_bits(t.mem)),
        bytes(double_bits(t.comm_bytes)),
        id(t.id) {}

  [[nodiscard]] bool operator<(const TaskKey& o) const noexcept {
    return std::tie(channel, comm, comp, mem, bytes, id) <
           std::tie(o.channel, o.comm, o.comp, o.mem, o.bytes, o.id);
  }
};

/// Domain separator absorbed before the edge lists of a DAG, so no
/// edge-free instance's key sequence can be mistaken for a DAG's.
constexpr std::uint64_t kEdgesTag = 0x6474732d64616773ULL;  // "dts-dags"

}  // namespace

std::string Fingerprint::to_hex() const {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(32, '0');
  for (int i = 0; i < 16; ++i) {
    out[15 - i] = kDigits[(hi >> (4 * i)) & 0xf];
    out[31 - i] = kDigits[(lo >> (4 * i)) & 0xf];
  }
  return out;
}

CanonicalInstance::CanonicalInstance(const Instance& inst) {
  const std::size_t n = inst.size();
  // Sort the value tuples once; ties (indistinguishable tasks) break by
  // submission position, so the mapping is deterministic for a given
  // request while the hashed values stay permutation-invariant.
  std::vector<TaskKey> keys;
  keys.reserve(n);
  for (const Task& t : inst.tasks()) keys.emplace_back(t);
  std::sort(keys.begin(), keys.end());

  canonical_to_request_.resize(n);
  request_to_canonical_.resize(n);
  HashLane hi(0x6474732d68690001ULL);  // "dts-hi"
  HashLane lo(0x6474732d6c6f0002ULL);  // "dts-lo"
  const auto absorb = [&hi, &lo](std::uint64_t v) {
    hi.absorb(v);
    lo.absorb(v);
  };
  absorb(n);
  for (TaskId slot = 0; slot < n; ++slot) {
    const TaskKey& k = keys[slot];
    canonical_to_request_[slot] = k.id;
    request_to_canonical_[k.id] = slot;
    for (std::uint64_t v : {static_cast<std::uint64_t>(k.channel), k.comm,
                            k.comp, k.mem, k.bytes}) {
      absorb(v);
    }
  }

  // Precedence joins the identity: each slot's predecessors, renamed to
  // canonical slots and sorted. Two DAGs share a fingerprint only when
  // the slot mapping is an isomorphism between them, so a cached order
  // is always feasible for the request it answers.
  if (inst.has_dependencies()) {
    absorb(kEdgesTag);
    std::vector<TaskId> preds;
    for (TaskId slot = 0; slot < n; ++slot) {
      preds.clear();
      for (TaskId dep : inst[canonical_to_request_[slot]].deps) {
        preds.push_back(request_to_canonical_[dep]);
      }
      std::sort(preds.begin(), preds.end());
      absorb(preds.size());
      for (TaskId pred : preds) absorb(pred);
    }
  }
  fingerprint_ = Fingerprint{hi.digest(), lo.digest()};
}

std::vector<TaskId> CanonicalInstance::to_request_order(
    const std::vector<TaskId>& slots) const {
  const std::size_t n = canonical_to_request_.size();
  if (slots.size() != n) {
    throw std::invalid_argument(
        "CanonicalInstance: order length does not match instance");
  }
  std::vector<bool> seen(n, false);
  std::vector<TaskId> out;
  out.reserve(n);
  for (TaskId slot : slots) {
    if (slot >= n || seen[slot]) {
      throw std::invalid_argument(
          "CanonicalInstance: order is not a permutation of slots");
    }
    seen[slot] = true;
    out.push_back(canonical_to_request_[slot]);
  }
  return out;
}

std::vector<TaskId> CanonicalInstance::to_canonical_order(
    const std::vector<TaskId>& ids) const {
  const std::size_t n = request_to_canonical_.size();
  if (ids.size() != n) {
    throw std::invalid_argument(
        "CanonicalInstance: order length does not match instance");
  }
  std::vector<bool> seen(n, false);
  std::vector<TaskId> out;
  out.reserve(n);
  for (TaskId id : ids) {
    if (id >= n || seen[id]) {
      throw std::invalid_argument(
          "CanonicalInstance: order is not a permutation of task ids");
    }
    seen[id] = true;
    out.push_back(request_to_canonical_[id]);
  }
  return out;
}

Fingerprint fingerprint_of(const Instance& inst) {
  return CanonicalInstance(inst).fingerprint();
}

}  // namespace dts
