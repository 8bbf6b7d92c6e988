#include <algorithm>
#include <stdexcept>
#include <string>

#include "support/rng.hpp"
#include "trace/generators.hpp"
#include "trace/tensor_tasks.hpp"

namespace dts {

namespace {

/// HF on SiOSi uses a fixed tile size of 100 (paper §5), i.e. 100x100
/// double tiles of 80 KB.
constexpr std::size_t kHfTile = 100;
constexpr double kIndexBufferBytes = 16000.0;  // shell-index metadata

}  // namespace

Instance generate_hf_trace(const TraceConfig& config) {
  Rng rng(config.seed ^ 0x48462D53494F5349ULL);  // "HF-SIOSI"
  const Machine& m = config.machine;
  if (!m.has_compute_rates()) {
    throw std::invalid_argument("generate_hf_trace: machine '" + m.name() +
                                "' has no compute rates");
  }
  const MachineChannel& link = m.channel(kChannelH2D);
  const std::size_t n_tasks = static_cast<std::size_t>(
      rng.uniform_u64(config.min_tasks, config.max_tasks));

  const TileSpec tile{{kHfTile, kHfTile}};
  std::vector<Task> tasks;
  tasks.reserve(n_tasks);

  // HF's task population (calibrated to the paper's Fig. 8 shape and §4.6
  // commentary): dominated by homogeneous, communication-intensive Fock
  // accumulation fetches; a modest minority of *mildly* compute-intensive
  // contractions against resident tiles, whose communication times are
  // small — the structural property the paper credits for SCMR's strength
  // on HF. Aggregate: sum comp ~ 0.25 sum comm, <= ~20% overlap headroom.
  // SiOSi's basis dimension is not a multiple of the tile size, so blocks
  // at the matrix boundary are narrower; a Fock task fetches full
  // (100,100) tiles, boundary (100,r) strips, or corner (r,r) stubs.
  const auto boundary =
      static_cast<std::size_t>(rng.uniform_u64(36, 64));  // per-molecule r
  const TileSpec strip{{kHfTile, boundary}};
  const TileSpec corner{{boundary, boundary}};

  for (std::size_t i = 0; i < n_tasks; ++i) {
    const double mix = rng.next_double();
    Task t;
    if (mix < 0.55) {
      // Fock accumulation over a (mu,nu|lambda,sigma) integral block:
      // fetch the integral tile and a density tile plus index metadata.
      // This is the largest footprint of the run: 2*80000 + 16000 =
      // 176000 bytes -> mc = 176 KB.
      t = make_fock_accumulation_task(m, tile, 2, kIndexBufferBytes,
                                      "fock2_" + std::to_string(i));
    } else if (mix < 0.70) {
      // Boundary blocks: two (100, r) strips.
      t = make_fock_accumulation_task(m, strip, 2, kIndexBufferBytes,
                                      "fockb_" + std::to_string(i));
    } else if (mix < 0.78) {
      // Corner blocks: two (r, r) stubs.
      t = make_fock_accumulation_task(m, corner, 2, kIndexBufferBytes,
                                      "fockc_" + std::to_string(i));
    } else if (mix < 0.88) {
      // Single-tile accumulation (diagonal blocks / screening survivors).
      t = make_fock_accumulation_task(m, tile, 1, kIndexBufferBytes,
                                      "fock1_" + std::to_string(i));
    } else {
      // Small contraction against a resident tile: fetch one thin slab
      // B(k x 100), contract with a resident A(100 x k). Compute
      // intensive, but only mildly (the processor digests one while the
      // next transfer is in flight), and with small communication times.
      const auto k = static_cast<std::size_t>(rng.uniform_u64(30, 60));
      const double b_bytes = 8.0 * static_cast<double>(k * kHfTile);
      const Time comm = link.transfer_time(b_bytes);
      t = Task{.id = 0,
               .comm = comm,
               .comp = comm * rng.uniform(1.05, 1.45),
               .mem = b_bytes,
               .comm_bytes = b_bytes,
               .name = "ct_" + std::to_string(i)};
    }
    // Mild run-to-run jitter on the computation (cache state, NUMA): HF
    // tiles are homogeneous, so the noise is small.
    t.comp *= rng.uniform(0.93, 1.07);
    tasks.push_back(std::move(t));
  }

  // The paper's mc for HF is the two-tile Fock task; make sure at least
  // one exists so every trace has the same minimum capacity.
  if (std::none_of(tasks.begin(), tasks.end(), [](const Task& t) {
        return t.mem >= 176000.0;
      })) {
    tasks.front() =
        make_fock_accumulation_task(m, tile, 2, kIndexBufferBytes, "fock2_0");
  }
  return Instance(std::move(tasks));
}

}  // namespace dts
