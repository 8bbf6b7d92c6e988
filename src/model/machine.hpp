#pragma once

/// \file machine.hpp
/// Machine descriptors and the string-keyed machine registry: the hardware
/// half of the paper's performance-model methodology, made first class.
///
/// A Machine is the library's one machine descriptor: a named collection
/// of copy engines, each costed by its own TransferModel, plus the
/// processor's compute rates the trace generators cost computations with.
/// Workloads stay machine independent — tasks carry the *bytes* their
/// transfer moves (Task::comm_bytes) — and bind() produces the
/// machine-specific costed instance by running every byte-annotated task
/// through its channel's model. Re-targeting a workload to different
/// hardware is bind(inst, other_machine); asymmetric-duplex what-if
/// studies are a one-line machine swap.
///
/// Machines register in the MachineRegistry exactly like solvers do in the
/// SolverRegistry (core/solver.hpp): a namespace-scope RegisterMachine
/// adds a factory before main(), and the built-in presets ("paper",
/// "summit-node", "duplex-pcie", "nvlink", ...) are registered on first
/// access. SolveRequest::machine resolves names here lazily at solve()
/// time.

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/instance.hpp"
#include "model/transfer_model.hpp"

namespace dts {

/// One copy engine of a Machine: a report-friendly name plus the
/// performance model that converts bytes into occupancy time. The model
/// pointer is shared because Machine values are freely copied (requests
/// carry them by value) and TransferModels are immutable.
struct MachineChannel {
  std::string name = "link";
  std::shared_ptr<const TransferModel> model;

  [[nodiscard]] Time transfer_time(double bytes) const {
    return model->transfer_time(bytes);
  }
};

/// Convenience builder for the common affine case.
[[nodiscard]] MachineChannel affine_channel(std::string name, double latency,
                                            double bandwidth);

/// A machine: named channels indexed by ChannelId, plus optional compute
/// rates. Channel 0 is the paper's single link (and the H2D engine of a
/// duplex machine); channel 1, when present, is the D2H write-back engine.
/// A transfer-only machine (both rates zero) can re-cost and solve traces
/// but not generate them.
class Machine {
 public:
  /// `flop_rate` is the effective dense-compute rate (flop/s) and
  /// `memory_bandwidth` the streaming bandwidth of memory-bound kernels
  /// (bytes/s); both zero means the machine has no compute rates. Throws
  /// std::invalid_argument for an empty channel list, a channel without a
  /// model, or rates that are not both zero or both positive and finite.
  Machine(std::string name, std::vector<MachineChannel> channels,
          double flop_rate = 0.0, double memory_bandwidth = 0.0);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::size_t num_channels() const noexcept {
    return channels_.size();
  }
  [[nodiscard]] bool duplex() const noexcept { return channels_.size() > 1; }
  [[nodiscard]] const MachineChannel& channel(ChannelId id) const {
    return channels_.at(id);
  }
  [[nodiscard]] const std::vector<MachineChannel>& channels() const noexcept {
    return channels_;
  }

  /// Time for `bytes` on channel `id`. Throws std::out_of_range for a
  /// channel this machine does not have.
  [[nodiscard]] Time transfer_time(ChannelId id, double bytes) const {
    return channels_.at(id).transfer_time(bytes);
  }

  /// True when the machine carries compute rates (it can generate traces).
  [[nodiscard]] bool has_compute_rates() const noexcept {
    return flop_rate_ > 0.0;
  }

  /// Time to execute `flops` of dense compute.
  [[nodiscard]] Time compute_time(double flops) const noexcept {
    return flops / flop_rate_;
  }

  /// Time of a memory-bound pass touching `bytes` twice (read + write).
  [[nodiscard]] Time streaming_time(double bytes) const noexcept {
    return 2.0 * bytes / memory_bandwidth_;
  }

 private:
  std::string name_;
  std::vector<MachineChannel> channels_;
  double flop_rate_ = 0.0;
  double memory_bandwidth_ = 0.0;
};

/// Produces the machine-costed instance: every byte-annotated task gets
/// comm recomputed from its channel's TransferModel (including previously
/// time-less tasks); tasks without a byte annotation keep their measured
/// comm. Throws std::invalid_argument when a task is time-less AND
/// byte-less (nothing to cost it with), or references a channel the
/// machine does not have.
[[nodiscard]] Instance bind(const Instance& inst, const Machine& machine);

/// One row of MachineRegistry::listings().
struct MachineListing {
  std::string name;         ///< registry key, e.g. "duplex-pcie"
  std::string channels;     ///< e.g. "H2D+D2H"
  std::string description;
};

/// The channel capability a machine registration declares up front: the
/// '+'-joined channel names, in ChannelId order ("link", "H2D+D2H").
/// Listings print the declaration without instantiating any factory, and
/// MachineRegistry::make() verifies the built machine against it — a
/// drifting declaration is a std::logic_error the first time the machine
/// is built, not a silently wrong `dts machines` row. Every registration
/// site states it explicitly (tools/dts_lint.py enforces the presence).
struct MachineChannels {
  std::string labels;

  /// The declaration `machine` actually satisfies.
  [[nodiscard]] static MachineChannels of(const Machine& machine) {
    MachineChannels channels;
    for (const MachineChannel& ch : machine.channels()) {
      if (!channels.labels.empty()) channels.labels += '+';
      channels.labels += ch.name;
    }
    return channels;
  }
};

/// String-keyed machine factory registry, mirroring SolverRegistry.
/// Factories self-register via RegisterMachine; the built-in presets are
/// registered on first access so a static-library link never loses them.
class MachineRegistry {
 public:
  using Factory = std::function<Machine()>;

  /// The process-wide registry.
  [[nodiscard]] static MachineRegistry& global();

  /// Registers a factory under `key` with its declared channel layout.
  /// Throws std::logic_error when the key is already taken or empty.
  /// The declaration is required at every site; there is deliberately no
  /// defaulting overload.
  void add(std::string key, MachineChannels channels, std::string description,
           Factory factory);

  /// Instantiates the machine `name` refers to. Throws
  /// std::invalid_argument for an unknown key — the message lists every
  /// available machine — and std::logic_error when the factory builds a
  /// machine whose channels do not match the registration's declaration.
  [[nodiscard]] Machine make(std::string_view name) const;

  [[nodiscard]] bool contains(std::string_view key) const;

  /// Every registered machine, in registration order.
  [[nodiscard]] std::vector<MachineListing> listings() const;

  /// Registered keys, in registration order (error messages, CLI).
  [[nodiscard]] std::vector<std::string> keys() const;

 private:
  struct Entry {
    std::string key;
    std::string channels;  ///< declared '+'-joined channel names
    std::string description;
    Factory factory;
  };
  std::vector<Entry> entries_;  // small; linear lookup, stable order
};

/// Self-registration helper: a namespace-scope `const RegisterMachine` in
/// any linked translation unit adds the factory before main() runs.
struct RegisterMachine {
  RegisterMachine(std::string key, MachineChannels channels,
                  std::string description, MachineRegistry::Factory factory) {
    MachineRegistry::global().add(std::move(key), std::move(channels),
                                  std::move(description), std::move(factory));
  }
};

/// Resolves a preset name in the global registry.
[[nodiscard]] Machine machine_from_name(std::string_view name);

/// The "paper" preset, built without a registry lookup (no lock, no
/// factory copy, no declaration audit): TraceConfig's default machine,
/// constructed once per generated trace.
[[nodiscard]] Machine paper_machine();

/// Listings of the global registry (CLI `dts machines`, error messages).
[[nodiscard]] std::vector<MachineListing> list_machines();

}  // namespace dts
