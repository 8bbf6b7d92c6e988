#include "model/machine.hpp"

#include <cmath>
#include <mutex>
#include <sstream>
#include <stdexcept>

namespace dts {

MachineChannel affine_channel(std::string name, double latency,
                              double bandwidth) {
  return MachineChannel{
      std::move(name),
      std::make_shared<const AffineTransferModel>(latency, bandwidth)};
}

Machine::Machine(std::string name, std::vector<MachineChannel> channels,
                 double flop_rate, double memory_bandwidth)
    : name_(std::move(name)),
      channels_(std::move(channels)),
      flop_rate_(flop_rate),
      memory_bandwidth_(memory_bandwidth) {
  if (channels_.empty()) {
    throw std::invalid_argument("Machine '" + name_ +
                                "': at least one channel required");
  }
  for (const MachineChannel& ch : channels_) {
    if (!ch.model) {
      throw std::invalid_argument("Machine '" + name_ + "': channel '" +
                                  ch.name + "' has no transfer model");
    }
  }
  const auto valid = [](double rate) {
    return std::isfinite(rate) && rate > 0.0;
  };
  if ((flop_rate_ != 0.0 || memory_bandwidth_ != 0.0) &&
      !(valid(flop_rate_) && valid(memory_bandwidth_))) {
    throw std::invalid_argument("Machine '" + name_ +
                                "': compute rates must both be positive and "
                                "finite, or both zero");
  }
}

Instance bind(const Instance& inst, const Machine& machine) {
  std::vector<Task> tasks(inst.tasks());
  for (Task& t : tasks) {
    if (t.channel >= machine.num_channels()) {
      throw std::invalid_argument(
          "bind: task '" + (t.name.empty() ? "T" + std::to_string(t.id)
                                           : t.name) +
          "' runs on channel " + std::to_string(t.channel) + " but machine '" +
          machine.name() + "' has only " +
          std::to_string(machine.num_channels()) + " channel(s)");
    }
    if (t.has_comm_bytes()) {
      t.comm = machine.channel(t.channel).transfer_time(t.comm_bytes);
    } else if (!t.time_bound()) {
      throw std::invalid_argument(
          "bind: task '" + (t.name.empty() ? "T" + std::to_string(t.id)
                                           : t.name) +
          "' has neither a transfer time nor a byte annotation");
    }
  }
  return Instance(std::move(tasks));
}

namespace {

std::mutex& machine_registry_mutex() {
  static std::mutex mutex;
  return mutex;
}

/// The paper's testbed: one process's share of a PNNL Cascade node. Its
/// FDR link is shared by 15 workers (1.2 GB/s one-sided, 2 us startup);
/// DGEMM reaches ~60% of an E5-2670 core's 20.8 GF/s; transposes stream
/// at 4 GB/s. Only transfer/compute *ratios* steer the schedules.
Machine cascade_machine(std::string name) {
  return Machine(std::move(name), {affine_channel("link", 2.0e-6, 1.2e9)},
                 1.2e10, 4.0e9);
}

/// CPU->GPU offload over PCIe 3.0 x16 to a ~7 TF/s accelerator, the
/// setting the paper's conclusion names next. The duplex form engages
/// both DMA engines; D2H runs marginally slower (non-posted writes).
Machine pcie_gpu_machine(std::string name, bool duplex) {
  std::vector<MachineChannel> channels;
  channels.push_back(affine_channel(duplex ? "H2D" : "link", 8.0e-6, 1.2e10));
  if (duplex) channels.push_back(affine_channel("D2H", 8.0e-6, 1.1e10));
  return Machine(std::move(name), std::move(channels), 7.0e12, 4.0e11);
}

/// The built-in presets, registered by MachineRegistry::global() on first
/// access — the same late-registration trick SolverRegistry uses to
/// survive static-library links.
void register_builtin_machines(MachineRegistry& registry) {
  registry.add("paper", MachineChannels{"link"},
               "the paper's testbed: one process's share of a PNNL Cascade "
               "node (shared FDR link, one-sided transfers)",
               paper_machine);
  registry.add("cascade", MachineChannels{"link"},
               "alias of 'paper' (the Cascade testbed)",
               [] { return cascade_machine("cascade"); });
  registry.add("pcie-gpu", MachineChannels{"link"},
               "CPU->GPU offload over one PCIe 3.0 x16 DMA engine "
               "(half duplex)",
               [] { return pcie_gpu_machine("pcie-gpu", false); });
  registry.add("duplex-pcie", MachineChannels{"H2D+D2H"},
               "CPU<->GPU offload with both PCIe 3.0 x16 DMA engines "
               "(H2D + slightly slower D2H)",
               [] { return pcie_gpu_machine("duplex-pcie", true); });
  registry.add(
      "summit-node", MachineChannels{"H2D+D2H"},
      "Summit-like node: NVLink2 CPU<->GPU bricks, duplex, with the "
      "measured small/large-message protocol switch (piecewise model)",
      [] {
        // NVLink2 CPU<->GPU on a Summit node: ~50 GB/s per direction (two
        // bricks). Small messages ride an eager path whose effective
        // bandwidth sits far below the asymptote; the curve switches
        // branch at the 64 KiB protocol threshold — the two-regime shape
        // the paper measures on its own interconnect.
        const auto nvlink2 = [] {
          return std::make_shared<const PiecewiseTransferModel>(
              std::vector<PiecewiseTransferModel::Segment>{
                  {0.0, 1.5e-6, 1.0e10},      // eager: latency-dominated
                  {65536.0, 6.0e-6, 5.0e10},  // rendezvous: streaming
              });
        };
        return Machine("summit-node", {MachineChannel{"H2D", nvlink2()},
                                       MachineChannel{"D2H", nvlink2()}});
      });
  registry.add(
      "summit-multi-gpu",
      MachineChannels{"g0-h2d+g0-d2h+g1-h2d+g1-d2h+g2-h2d+g2-d2h+g3-h2d+"
                      "g3-d2h+g0g1-peer+g1g2-peer+g2g3-peer+g3g0-peer"},
      "Summit-like multi-GPU node: 4 GPUs, one duplex PCIe host link pair "
      "per GPU plus an NVLink peer ring (12 copy engines)",
      [] {
        // The deep-hierarchy preset: each of the four GPUs owns a duplex
        // pair of PCIe 3.0 x16 host links (~12.3 GB/s in, ~12.0 GB/s
        // out), and neighbouring GPUs are joined by NVLink2 peer bricks
        // (~50 GB/s, sub-2us startup) in a ring — the per-direction
        // affine family calibrate() fits. Channel ids follow the
        // declaration order: host pairs first (g0..g3), then the peer
        // ring (g0g1, g1g2, g2g3, g3g0).
        std::vector<MachineChannel> channels;
        for (int g = 0; g < 4; ++g) {
          const std::string gpu = "g" + std::to_string(g);
          channels.push_back(affine_channel(gpu + "-h2d", 5.0e-6, 1.23e10));
          channels.push_back(affine_channel(gpu + "-d2h", 5.0e-6, 1.20e10));
        }
        for (int g = 0; g < 4; ++g) {
          const std::string peer =
              "g" + std::to_string(g) + "g" + std::to_string((g + 1) % 4);
          channels.push_back(affine_channel(peer + "-peer", 1.5e-6, 5.0e10));
        }
        return Machine("summit-multi-gpu", std::move(channels));
      });
  registry.add("nvlink", MachineChannels{"H2D+D2H"},
               "NVLink3-class CPU<->GPU attachment: duplex, ~150 GB/s per "
               "direction, sub-microsecond startup",
               [] {
                 return Machine("nvlink",
                                {affine_channel("H2D", 8.0e-7, 1.5e11),
                                 affine_channel("D2H", 8.0e-7, 1.5e11)});
               });
}

}  // namespace

MachineRegistry& MachineRegistry::global() {
  static MachineRegistry registry;
  static std::once_flag builtin_once;
  std::call_once(builtin_once, [] { register_builtin_machines(registry); });
  return registry;
}

void MachineRegistry::add(std::string key, MachineChannels channels,
                          std::string description, Factory factory) {
  if (key.empty()) throw std::logic_error("machine key must not be empty");
  if (channels.labels.empty()) {
    throw std::logic_error("machine '" + key +
                           "' must declare its channels (e.g. \"link\", "
                           "\"H2D+D2H\")");
  }
  const std::lock_guard<std::mutex> lock(machine_registry_mutex());
  for (const Entry& entry : entries_) {
    if (entry.key == key) {
      throw std::logic_error("machine '" + key + "' registered twice");
    }
  }
  entries_.push_back(Entry{std::move(key), std::move(channels.labels),
                           std::move(description), std::move(factory)});
}

Machine MachineRegistry::make(std::string_view name) const {
  Factory factory;
  std::string declared;
  {
    const std::lock_guard<std::mutex> lock(machine_registry_mutex());
    for (const Entry& entry : entries_) {
      if (entry.key == name) {
        factory = entry.factory;
        declared = entry.channels;
        break;
      }
    }
  }
  if (!factory) {
    std::ostringstream message;
    message << "unknown machine '" << name << "'; available:";
    for (const std::string& key : keys()) message << " " << key;
    throw std::invalid_argument(message.str());
  }
  Machine machine = factory();
  // The declaration the listings print must be the machine the factory
  // actually builds — catch drift at the first construction, loudly.
  const std::string built = MachineChannels::of(machine).labels;
  if (built != declared) {
    throw std::logic_error("machine '" + std::string(name) +
                           "': registration declares channels '" + declared +
                           "' but the factory built '" + built + "'");
  }
  return machine;
}

bool MachineRegistry::contains(std::string_view key) const {
  const std::lock_guard<std::mutex> lock(machine_registry_mutex());
  for (const Entry& entry : entries_) {
    if (entry.key == key) return true;
  }
  return false;
}

std::vector<MachineListing> MachineRegistry::listings() const {
  // The channels column is the registration's declaration: listing the
  // registry never instantiates a factory (make() verifies the
  // declaration against the built machine, so the column cannot drift).
  const std::lock_guard<std::mutex> lock(machine_registry_mutex());
  std::vector<MachineListing> rows;
  rows.reserve(entries_.size());
  for (const Entry& entry : entries_) {
    rows.push_back(MachineListing{entry.key, entry.channels,
                                  entry.description});
  }
  return rows;
}

std::vector<std::string> MachineRegistry::keys() const {
  const std::lock_guard<std::mutex> lock(machine_registry_mutex());
  std::vector<std::string> keys;
  keys.reserve(entries_.size());
  for (const Entry& entry : entries_) keys.push_back(entry.key);
  return keys;
}

Machine paper_machine() { return cascade_machine("paper"); }

Machine machine_from_name(std::string_view name) {
  return MachineRegistry::global().make(name);
}

std::vector<MachineListing> list_machines() {
  return MachineRegistry::global().listings();
}

}  // namespace dts
