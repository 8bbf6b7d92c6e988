#pragma once

/// \file generators.hpp
/// Synthetic per-process traces standing in for the paper's NWChem runs on
/// PNNL Cascade (150 processes, 300-800 tasks each; HF on SiOSi molecules
/// with tile size 100, CCSD on Uracil). The generators are calibrated to
/// the published aggregate shape (Fig. 8) — see DESIGN.md §5 for the
/// substitution argument:
///
///  * HF: near-homogeneous tasks; communication dominates (the sum of
///    computation times is ~a quarter of the sum of communication times,
///    capping the achievable overlap near 20%); the compute-intensive
///    minority has *small* communication times; the largest task fetches
///    two 100x100 tiles plus an index buffer — mc = 176 KB.
///  * CCSD: heterogeneous tile sizes; communication and computation sums
///    are comparable (roughly half the sequential time can be hidden);
///    significant fractions of both task types; the largest tasks fetch
///    ~1.8 GB slabs — mc = 1.8 GB.
///
/// Generation is fully deterministic in the seed.

#include <cstdint>
#include <string_view>
#include <vector>

#include "core/instance.hpp"
#include "model/machine.hpp"

namespace dts {

enum class ChemistryKernel {
  kHartreeFock,        ///< HF, SiOSi-like workload
  kCoupledClusterSD,   ///< CCSD, Uracil-like workload
};

[[nodiscard]] std::string_view to_string(ChemistryKernel kernel) noexcept;

struct TraceConfig {
  std::uint64_t seed = 1;
  /// Tasks per process trace, sampled uniformly in [min_tasks, max_tasks].
  std::size_t min_tasks = 300;
  std::size_t max_tasks = 800;
  /// The machine whose channels cost the transfers and whose compute
  /// rates cost the computations (HF generation throws
  /// std::invalid_argument for a machine without them).
  Machine machine = paper_machine();
  /// Fraction of each task's input footprint written back to the host
  /// when the machine is duplex (see below). HF accumulates one result
  /// tile against two fetched ones; CCSD amplitude slabs return near
  /// full-size — 0.4 is a serviceable middle ground for both.
  double writeback_fraction = 0.4;
};

/// One HF process trace (Fock-build fetches + small resident contractions).
[[nodiscard]] Instance generate_hf_trace(const TraceConfig& config);

/// One CCSD process trace (large slab fetches, tile transposes, and
/// compute-rich amplitude contractions).
[[nodiscard]] Instance generate_ccsd_trace(const TraceConfig& config);

/// One CCSD process trace with *precedence*: contraction chains in the
/// Super Instruction style. Each chain is a pipeline of 2–5 tensor
/// contractions — contraction k fetches its fresh operand slab from the
/// host but must also wait for contraction k-1 (the intermediate stays
/// on the device, so the transfer may overlap with earlier chains but
/// the computation order is fixed) — and ends with a result write-back
/// task (comp = 0) depending on the final contraction. On a duplex
/// machine (Machine::duplex()) write-backs ride kChannelD2H;
/// half-duplex machines put them on the single channel. Chains are
/// mutually independent, so the instance is a forest of linear DAGs —
/// the shape Instance::has_dependencies()-aware solvers are benchmarked
/// on. Volume and intensity distributions match generate_ccsd_trace;
/// fully deterministic in the seed.
[[nodiscard]] Instance generate_ccsd_dag_trace(const TraceConfig& config);

/// Dispatch on the kernel. A duplex machine (Machine::duplex() — e.g.
/// the "duplex-pcie" preset) makes the trace bidirectional: each
/// fetched task is followed by a result write-back task on kChannelD2H
/// sized by TraceConfig::writeback_fraction, so input and output traffic
/// can overlap on the two engines. Half-duplex machines reproduce the
/// original single-channel traces bit-for-bit.
[[nodiscard]] Instance generate_trace(ChemistryKernel kernel,
                                      const TraceConfig& config);

/// The paper's experimental corpus: `count` process traces (150 in the
/// paper) with seeds base_seed, base_seed+1, ...
[[nodiscard]] std::vector<Instance> generate_process_traces(
    ChemistryKernel kernel, std::size_t count, std::uint64_t base_seed,
    const TraceConfig& prototype = {});

}  // namespace dts
