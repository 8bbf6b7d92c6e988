#include <algorithm>
#include <cmath>
#include <string>

#include "support/rng.hpp"
#include "trace/generators.hpp"
#include "trace/tensor_tasks.hpp"
#include "trace/transforms.hpp"

namespace dts {

std::string_view to_string(ChemistryKernel kernel) noexcept {
  switch (kernel) {
    case ChemistryKernel::kHartreeFock: return "HF";
    case ChemistryKernel::kCoupledClusterSD: return "CCSD";
  }
  return "?";
}

namespace {

/// Largest slab a CCSD task fetches (the paper's mc for CCSD is 1.8 GB).
constexpr double kMaxSlabBytes = 1.8e9;
constexpr double kMinSlabBytes = 2.0e6;

/// Log-uniform sample in [lo, hi].
double log_uniform(Rng& rng, double lo, double hi) {
  return lo * std::exp(rng.uniform(0.0, std::log(hi / lo)));
}

}  // namespace

Instance generate_ccsd_trace(const TraceConfig& config) {
  Rng rng(config.seed ^ 0x434353442D555241ULL);  // "CCSD-URA"
  const MachineChannel& link = config.machine.channel(kChannelH2D);
  const std::size_t n_tasks = static_cast<std::size_t>(
      rng.uniform_u64(config.min_tasks, config.max_tasks));

  // CCSD picks tile sizes per program point (paper §5), so a task's data
  // volume spans three orders of magnitude, and the work-per-byte of a
  // task varies independently of its size: a tile participates either in
  // reshapes/fetch-digest passes (communication intensive) or in BLAS-3
  // contractions whose arithmetic intensity depends on the contracted
  // range (compute intensive). We model a task as
  //    volume  ~ log-uniform [2 MB, 1.8 GB]    (transfer + footprint)
  //    ratio r ~ lognormal, median 1           (CP = r * CM)
  // which reproduces Fig. 8's CCSD shape: sum comm ~ sum comp, wide
  // heterogeneity, and a roughly even split of task types at every size.
  std::vector<Task> tasks;
  tasks.reserve(n_tasks);

  for (std::size_t i = 0; i < n_tasks; ++i) {
    double bytes = 0.0;
    if (i == 0 || rng.chance(0.03)) {
      // Full T2-amplitude slab: the footprint that defines mc. Forced at
      // least once per trace so every process sees the same minimum
      // capacity, as in the paper's corpus.
      bytes = kMaxSlabBytes * rng.uniform(0.98, 1.0);
    } else {
      bytes = log_uniform(rng, kMinSlabBytes, 0.45 * kMaxSlabBytes);
    }
    const Time comm = link.transfer_time(bytes);
    // Lognormal work-per-byte with E[r] = 1 (mu = -sigma^2/2), sigma 0.65:
    // the comm and comp sums balance in expectation (Fig. 8's CCSD shape)
    // while ~37% of tasks are compute intensive and ~6% fall beyond ratio
    // 3.5 either way — heterogeneous but not absurd.
    const double ratio = std::exp(-0.211 + 0.65 * rng.normal());
    const bool contraction = ratio >= 1.0;
    tasks.push_back(Task{
        .id = 0,
        .comm = comm,
        .comp = comm * ratio,
        .mem = bytes,
        .comm_bytes = bytes,
        .name = (contraction ? "contract_" : "fetch_") + std::to_string(i)});
  }
  return Instance(std::move(tasks));
}

Instance generate_ccsd_dag_trace(const TraceConfig& config) {
  Rng rng(config.seed ^ 0x434353442D444147ULL);  // "CCSD-DAG"
  const Machine& m = config.machine;
  const std::size_t n_tasks = static_cast<std::size_t>(
      rng.uniform_u64(config.min_tasks, config.max_tasks));
  const ChannelId wb_channel = m.duplex() ? kChannelD2H : kChannelH2D;
  const MachineChannel& link = m.channel(kChannelH2D);
  const MachineChannel& wb_link = m.channel(wb_channel);

  // Super Instruction style contraction chains: within a chain,
  // contraction k fetches its fresh operand slab (an independent host
  // transfer) but the *computation* consumes contraction k-1's
  // intermediate, which never leaves the device — a dependency edge, not
  // a transfer. Each chain's result streams back in a terminal
  // write-back task. Chains are mutually independent, so transfers of
  // one chain overlap computations of another exactly as SIA block
  // schedulers exploit.
  std::vector<Task> tasks;
  tasks.reserve(n_tasks + 4);
  std::size_t chain = 0;
  bool slab_emitted = false;
  while (tasks.size() < n_tasks) {
    const std::size_t chain_len = 2 + rng.uniform_u64(0, 3);  // 2..5
    TaskId prev = kInvalidTask;
    Mem chain_output = 0.0;
    for (std::size_t k = 0; k < chain_len; ++k) {
      double bytes = 0.0;
      if (!slab_emitted || rng.chance(0.03)) {
        // Full T2-amplitude slab — forced at least once per trace so the
        // minimum capacity matches the edge-free CCSD corpus.
        bytes = kMaxSlabBytes * rng.uniform(0.98, 1.0);
        slab_emitted = true;
      } else {
        bytes = log_uniform(rng, kMinSlabBytes, 0.45 * kMaxSlabBytes);
      }
      const Time comm = link.transfer_time(bytes);
      // Same lognormal work-per-byte family as generate_ccsd_trace
      // (E[r] = 1, sigma 0.65): the aggregate Fig. 8 shape is preserved,
      // only the precedence structure differs.
      const double ratio = std::exp(-0.211 + 0.65 * rng.normal());
      Task t;
      t.comm = comm;
      t.comp = comm * ratio;
      t.mem = bytes;
      t.comm_bytes = bytes;
      t.name = "c" + std::to_string(chain) + "_contract_" + std::to_string(k);
      if (prev != kInvalidTask) t.deps.push_back(prev);
      prev = static_cast<TaskId>(tasks.size());
      chain_output = bytes;  // the last contraction's slab sizes the result
      tasks.push_back(std::move(t));
    }
    const Mem result_bytes = config.writeback_fraction * chain_output;
    Task wb;
    wb.comm = wb_link.transfer_time(result_bytes);
    wb.comp = 0.0;
    wb.mem = result_bytes;
    wb.channel = wb_channel;
    wb.comm_bytes = result_bytes;
    wb.deps.push_back(prev);  // the copy may not start before the chain ends
    wb.name = "c" + std::to_string(chain) + "_wb";
    tasks.push_back(std::move(wb));
    ++chain;
  }
  return Instance(std::move(tasks));
}

Instance generate_trace(ChemistryKernel kernel, const TraceConfig& config) {
  Instance inst;
  switch (kernel) {
    case ChemistryKernel::kHartreeFock:
      inst = generate_hf_trace(config);
      break;
    case ChemistryKernel::kCoupledClusterSD:
      inst = generate_ccsd_trace(config);
      break;
  }
  if (config.machine.duplex()) {
    inst = with_writeback(inst, config.machine, config.writeback_fraction);
  }
  return inst;
}

std::vector<Instance> generate_process_traces(ChemistryKernel kernel,
                                              std::size_t count,
                                              std::uint64_t base_seed,
                                              const TraceConfig& prototype) {
  std::vector<Instance> traces;
  traces.reserve(count);
  for (std::size_t p = 0; p < count; ++p) {
    TraceConfig config = prototype;
    config.seed = base_seed + p;
    traces.push_back(generate_trace(kernel, config));
  }
  return traces;
}

}  // namespace dts
