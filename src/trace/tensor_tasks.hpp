#pragma once

/// \file tensor_tasks.hpp
/// Builders turning tensor-algebra operations into DT tasks. NWChem's HF
/// and CCSD kernels spend their time in two operations (paper §5): tensor
/// *transposes* (memory-bound, touch every byte they fetch) and tensor
/// *contractions* (BLAS-3-like, O(d^3) work on O(d^2) data). A task's
/// memory requirement is the volume it fetches into local memory — the
/// paper's "memory requirement proportional to communication volume".
/// Transfers are costed on the machine's channel 0 (the H2D link).

#include <cstddef>
#include <string>
#include <vector>

#include "core/task.hpp"
#include "model/machine.hpp"

namespace dts {

/// A dense tile of an f64 tensor.
struct TileSpec {
  std::vector<std::size_t> dims;

  [[nodiscard]] std::size_t elements() const noexcept;
  [[nodiscard]] double bytes() const noexcept;  ///< 8 bytes per element
};

/// Transpose/reshape of one fetched tile: communication moves the tile,
/// computation streams it through memory. Strongly communication
/// intensive under any realistic machine model.
[[nodiscard]] Task make_transpose_task(const Machine& machine,
                                       const TileSpec& tile, std::string name);

/// Tile contraction C[m,n] += sum_k A[m,k] * B[k,n] on composite index
/// ranges (m, n, k): fetches A and B (the output tile stays resident, as
/// the paper assumes), computes 2*m*n*k flops. Compute intensive once the
/// contracted range is large enough.
[[nodiscard]] Task make_contraction_task(const Machine& machine,
                                         std::size_t m, std::size_t n,
                                         std::size_t k, std::string name);

/// Fock-matrix accumulation task used by the HF generator: fetches
/// `n_tiles` integral/density tiles plus an index buffer, then performs a
/// few memory-bound passes over them. Communication intensive.
[[nodiscard]] Task make_fock_accumulation_task(const Machine& machine,
                                               const TileSpec& tile,
                                               std::size_t n_tiles,
                                               double index_buffer_bytes,
                                               std::string name);

}  // namespace dts
