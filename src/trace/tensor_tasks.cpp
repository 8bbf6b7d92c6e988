#include "trace/tensor_tasks.hpp"

namespace dts {

std::size_t TileSpec::elements() const noexcept {
  std::size_t n = 1;
  for (std::size_t d : dims) n *= d;
  return dims.empty() ? 0 : n;
}

double TileSpec::bytes() const noexcept {
  return 8.0 * static_cast<double>(elements());
}

Task make_transpose_task(const Machine& machine, const TileSpec& tile,
                         std::string name) {
  const double bytes = tile.bytes();
  return Task{.id = 0,
              .comm = machine.transfer_time(kChannelH2D, bytes),
              .comp = machine.streaming_time(bytes),
              .mem = bytes,
              .comm_bytes = bytes,
              .name = std::move(name)};
}

Task make_contraction_task(const Machine& machine, std::size_t m,
                           std::size_t n, std::size_t k, std::string name) {
  const double a_bytes = 8.0 * static_cast<double>(m) * static_cast<double>(k);
  const double b_bytes = 8.0 * static_cast<double>(k) * static_cast<double>(n);
  const double flops = 2.0 * static_cast<double>(m) * static_cast<double>(n) *
                       static_cast<double>(k);
  return Task{.id = 0,
              .comm = machine.transfer_time(kChannelH2D, a_bytes + b_bytes),
              .comp = machine.compute_time(flops),
              .mem = a_bytes + b_bytes,
              .comm_bytes = a_bytes + b_bytes,
              .name = std::move(name)};
}

Task make_fock_accumulation_task(const Machine& machine,
                                 const TileSpec& tile, std::size_t n_tiles,
                                 double index_buffer_bytes, std::string name) {
  const double bytes =
      tile.bytes() * static_cast<double>(n_tiles) + index_buffer_bytes;
  return Task{.id = 0,
              .comm = machine.transfer_time(kChannelH2D, bytes),
              // A couple of streaming passes (digestion + accumulation)
              // over the fetched integrals; still communication intensive
              // because the link is slower than the memory system.
              .comp = machine.streaming_time(bytes) * 0.30,
              .mem = bytes,
              .comm_bytes = bytes,
              .name = std::move(name)};
}

}  // namespace dts
