#pragma once

/// \file workloads.hpp
/// The benchmark's four request mixes, generated from the workload seed.
///
/// Every request is described by a compact RequestSpec; its instance and
/// its wire frame are rebuilt from the spec on demand (generation is
/// deterministic), so the driver keeps only the rendered payloads in
/// memory. Request k of a run uses spec k mod pool_size. Past the end of
/// the pool, cache-missing workloads add a `seed <epoch + 1>` header: the
/// seed joins the service's cache key but does not change what a
/// heuristic computes, so the request is a genuine cache miss with the
/// same answer.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/instance.hpp"

namespace perfbench {

enum class TraceKind {
  /// Single-link Hartree-Fock process trace, every duration x1000. The
  /// engine's absolute 1 ns tolerance floor makes about 1 in 5000 HF
  /// schedules at the generator's native 1e-4 s scale infeasible; at
  /// x1000 none are, and no other scheduling decision changes.
  kHf,
  kHfNative,    ///< the HF trace at the generator's own time scale
  kCcsd,        ///< single-link CCSD process trace
  kCcsdDuplex,  ///< duplex-pcie CCSD trace with result write-back
  kCcsdDag,     ///< CCSD contraction chains (precedence edges)
};

struct RequestSpec {
  TraceKind kind = TraceKind::kHf;
  std::uint64_t trace_seed = 1;
  std::size_t min_tasks = 300;
  std::size_t max_tasks = 800;
  std::string solver = "auto";
  double capacity_factor = 1.5;
  /// Sent as a bytes-only v3 trace with a `machine paper` header, so the
  /// service runs bind() on every request.
  bool bytes_only = false;
  /// Non-zero: the task lines are sent in a fresh order drawn from this
  /// seed (a relabelled resubmission of the same shape).
  std::uint64_t shuffle_seed = 0;
  /// serve-warm: the shape this request resends (its fill request).
  std::size_t shape = 0;
  /// Index of the rendered payload this request sends; requests that
  /// differ only in solver or capacity share one.
  std::size_t payload = 0;
};

/// The generated instance, costed (bytes-only specs are bound to the
/// machine they name), with the task order the request sends.
[[nodiscard]] dts::Instance build_instance(const RequestSpec& spec);

/// The dts-trace text the request sends.
[[nodiscard]] std::string render_payload(const RequestSpec& spec);

/// Header lines of the solve frame for request `id` (everything before
/// the payload), including the `trace <n>` line.
[[nodiscard]] std::string frame_header(const RequestSpec& spec,
                                       std::uint64_t id, std::uint64_t epoch,
                                       std::size_t payload_bytes);

/// The machine bytes-only requests name.
inline constexpr const char* kBytesOnlyMachine = "paper";

[[nodiscard]] std::string describe(const RequestSpec& spec);

struct Workload {
  std::string name;
  std::size_t connections = 1;
  std::size_t workers = 1;  ///< `dts serve --workers`
  /// Requests per mix cycle and connection: the cycle*connections
  /// consecutive request ids from a multiple of that number cover the
  /// workload's whole mix. A connection stops at a cycle boundary once
  /// the phase's time is up, so every phase serves whole mixes.
  std::size_t cycle = 1;
  /// Distinct request specs rendered at set-up.
  std::vector<RequestSpec> pool;
  /// serve-warm: the shapes the set-up fill pass sends once each.
  std::vector<RequestSpec> fill;
  /// Past the end of the pool, resend with a fresh seed header (every
  /// request stays a cache miss) instead of repeating verbatim.
  bool epoch_seeds = true;
  /// Leading specs of the pool whose makespan ratio is averaged into
  /// makespan_ratio_mean (warm: the fill shapes instead).
  std::size_t quality_specs = 0;
};

/// The workload `name` for `seed`, sized for a timed phase of `seconds`.
/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed, double seconds);

/// The source inputs of the per-layer solver probes (identical for every
/// workload, derived from the seed): a few serve-cold traces, one
/// solve-scaling mix, and the refine mix's three request kinds.
struct ProbeInputs {
  std::vector<RequestSpec> cold;
  std::vector<RequestSpec> scaling;
  std::vector<RequestSpec> local_search;
  std::vector<RequestSpec> milp;
  std::vector<RequestSpec> branch_bound;
};
[[nodiscard]] ProbeInputs make_probe_inputs(std::uint64_t seed);

/// The known over-capacity case (auto on HF seed 107 at 1.25 mc), for
/// checking that an infeasible schedule is counted, not fatal.
[[nodiscard]] RequestSpec known_infeasible_spec();

}  // namespace perfbench
