#pragma once

/// \file transforms.hpp
/// Trace surgery for calibration and what-if studies: rescaling times
/// (faster link / faster cores), rescaling memory, merging process traces,
/// filtering task populations and jittering durations. All transforms
/// return new instances; task names are preserved.

#include <functional>
#include <span>
#include <vector>

#include "core/instance.hpp"
#include "model/machine.hpp"
#include "support/rng.hpp"

namespace dts {

/// Multiplies every communication time by comm_factor and every
/// computation time by comp_factor (e.g. 0.5 comm = a twice-faster link).
/// Factors must be positive and finite.
[[nodiscard]] Instance scale_times(const Instance& inst, double comm_factor,
                                   double comp_factor);

/// Multiplies every memory requirement by `factor` (> 0).
[[nodiscard]] Instance scale_memory(const Instance& inst, double factor);

/// Concatenates traces in order (task ids renumbered; each trace's
/// dependency edges are shifted with its tasks, so DAG traces merge
/// without cross-trace edges appearing).
[[nodiscard]] Instance merge_traces(std::span<const Instance> traces);

/// Keeps the tasks satisfying `keep`, preserving submission order.
/// Dependency edges between two kept tasks survive (remapped to the new
/// ids); edges onto filtered-out tasks are dropped — transitive
/// predecessors are *not* inherited, the filter severs the chain.
[[nodiscard]] Instance filter_tasks(const Instance& inst,
                                    const std::function<bool(const Task&)>& keep);

/// Multiplies each duration by an independent uniform factor in
/// [1 - jitter, 1 + jitter] (jitter in [0, 1)). Models measurement noise
/// for robustness studies: how stable are the heuristics' decisions under
/// imprecise cost models?
[[nodiscard]] Instance jitter_times(const Instance& inst, Rng& rng,
                                    double jitter);

/// Splits a trace into consecutive batches of at most `batch_size` tasks
/// (the §6.3 runtime visibility model). Intra-batch dependency edges are
/// kept (remapped to batch-local ids); cross-batch edges are dropped —
/// each batch is its own instance, and the batch scheduler's in-order
/// submission over a shared Schedule supplies cross-batch readiness.
[[nodiscard]] std::vector<Instance> split_batches(const Instance& inst,
                                                  std::size_t batch_size);

/// Bidirectional (duplex) extension of a trace: after each task with a
/// positive footprint, inserts a result write-back task on kChannelD2H
/// whose transfer moves `result_fraction` of the task's input footprint
/// over `machine`'s D2H channel (comp = 0 — a pure transfer occupying the
/// output buffer for the duration of the copy). Original tasks keep their
/// channels; the
/// result models the paper-conclusion scenario where computed results
/// stream back to the host while the next inputs stream in.
/// `result_fraction` must be in (0, 1] and the machine duplex (throws
/// std::invalid_argument otherwise). Existing dependency edges are
/// remapped through the interleaving. With `depend_on_producer` each
/// write-back gains a dependency edge on the task that produced it (the
/// copy may not start before the computation ends — a DAG instance); the
/// default leaves write-backs independent, preserving the historical
/// duplex benchmarks bit-for-bit.
[[nodiscard]] Instance with_writeback(const Instance& inst,
                                      const Machine& machine,
                                      double result_fraction,
                                      bool depend_on_producer = false);

/// Forces every task onto channel 0 — the half-duplex serialization of a
/// multi-channel trace. Comparing makespans of an instance against
/// merged_channels(instance) isolates the gain of per-direction engines.
[[nodiscard]] Instance merged_channels(const Instance& inst);

/// Machine-independent (bytes-only) view of a byte-annotated trace: every
/// comm becomes the kUnboundTime sentinel, leaving only sizes — the input
/// of bind(inst, machine) / `dts recost`. Throws std::invalid_argument
/// when some task has no byte annotation (its time could never be
/// recovered).
[[nodiscard]] Instance strip_comm_times(const Instance& inst);

}  // namespace dts
