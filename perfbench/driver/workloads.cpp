#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "model/machine.hpp"
#include "support/rng.hpp"
#include "trace/generators.hpp"
#include "trace/machine.hpp"
#include "trace/trace_io.hpp"
#include "trace/transforms.hpp"

namespace perfbench {
namespace {

constexpr double kCapacityFactors[] = {1.0, 1.5, 2.0};

/// Independent seed for item `index` of stream `stream`.
std::uint64_t derive(std::uint64_t seed, std::uint64_t stream,
                     std::uint64_t index) {
  dts::Rng rng(seed * 0x9E3779B97F4A7C15ULL + stream * 0xD1B54A32D192ED03ULL +
               index);
  rng.next_u64();
  return rng.next_u64();
}

enum Stream : std::uint64_t {
  kColdStream = 1,
  kWarmStream,
  kShuffleStream,
  kScalingStream,
  kRefineStream,
};

RequestSpec cold_spec(std::uint64_t seed, std::size_t trace,
                      std::size_t capacity_round) {
  // No HF duplex traces: the engine's absolute tolerance floor makes
  // about 1 in 1000 of their microsecond-scale schedules infeasible.
  static constexpr TraceKind kKinds[] = {TraceKind::kHf, TraceKind::kCcsd,
                                         TraceKind::kCcsdDuplex,
                                         TraceKind::kCcsdDag};
  RequestSpec spec;
  spec.kind = kKinds[trace % 4];
  spec.trace_seed = derive(seed, kColdStream, trace);
  spec.capacity_factor = kCapacityFactors[(trace + capacity_round) % 3];
  return spec;
}

RequestSpec scaling_spec(std::uint64_t seed, std::size_t index) {
  static constexpr std::size_t kSizes[] = {2000, 4000, 8000};
  RequestSpec spec;
  spec.kind = index % 2 == 0 ? TraceKind::kHf : TraceKind::kCcsd;
  spec.trace_seed = derive(seed, kScalingStream, index);
  spec.min_tasks = spec.max_tasks = kSizes[(index % 6) / 2];
  return spec;
}

/// One refine mix of eighteen requests, alternating local search, MILP
/// and branch-and-bound. Local search runs once at each size 300, 400,
/// ..., 800 tasks, on HF, CCSD and duplex CCSD traces in turn, so every
/// whole mix (and so every run) spends its time on the same size mix.
/// The exact solvers get instances small enough to prove optimal, chosen
/// so that their times cluster: MILP on four-task CCSD (about 0.05 ms;
/// four-task HF instances spread over 0.06-30 ms) and branch-and-bound
/// on five-task HF (half of them within 1.4-2.1 ms). MILP requests are
/// then the fastest third, local searches the slowest third, and the
/// median latency falls inside the branch-and-bound cluster instead of in
/// a gap between clusters, where it would jump from seed to seed.
RequestSpec refine_spec(std::uint64_t seed, std::size_t index) {
  RequestSpec spec;
  spec.trace_seed = derive(seed, kRefineStream, index);
  const std::size_t step = index % 18 / 3;
  switch (index % 3) {
    case 0:
      spec.solver = "local-search";
      spec.min_tasks = spec.max_tasks = 300 + 100 * step;
      spec.kind = step % 3 == 0   ? TraceKind::kHf
                  : step % 3 == 1 ? TraceKind::kCcsd
                                  : TraceKind::kCcsdDuplex;
      // HF local search at 1.5 mc returns an infeasible schedule for about
      // 1 trace in 100 (the engine tolerance bug); at 2.0 mc none of 1100 did.
      if (spec.kind == TraceKind::kHf) spec.capacity_factor = 2.0;
      break;
    case 1:
      spec.solver = "milp";
      spec.kind = TraceKind::kCcsd;
      spec.min_tasks = spec.max_tasks = 4;
      break;
    default:
      spec.solver = "branch-bound";
      spec.kind = TraceKind::kHf;
      spec.min_tasks = spec.max_tasks = 5;
      break;
  }
  return spec;
}

/// Shape s of `shapes`: HF and CCSD alternate, and sizes step evenly
/// across 300-800 tasks so every seed sends the same size mix.
RequestSpec warm_shape(std::uint64_t seed, std::size_t shape, std::size_t shapes) {
  RequestSpec spec;
  spec.kind = shape % 2 == 0 ? TraceKind::kHf : TraceKind::kCcsd;
  spec.trace_seed = derive(seed, kWarmStream, shape);
  spec.min_tasks = spec.max_tasks = 300 + 500 * shape / (shapes - 1);
  spec.capacity_factor = kCapacityFactors[shape % 3];
  spec.bytes_only = shape % 4 == 3;
  spec.shape = shape;
  return spec;
}

dts::Instance generate(const RequestSpec& spec) {
  dts::TraceConfig config;
  config.seed = spec.trace_seed;
  config.min_tasks = spec.min_tasks;
  config.max_tasks = spec.max_tasks;
  switch (spec.kind) {
    case TraceKind::kHf:
      return dts::scale_times(dts::generate_hf_trace(config), 1e3, 1e3);
    case TraceKind::kHfNative:
      return dts::generate_hf_trace(config);
    case TraceKind::kCcsd:
      return dts::generate_ccsd_trace(config);
    case TraceKind::kCcsdDuplex:
      // Each fetch gains a write-back task: halve the fetch count so the
      // trace stays in the 300-800 task range.
      config.min_tasks = std::max<std::size_t>(1, spec.min_tasks / 2);
      config.max_tasks = std::max<std::size_t>(1, spec.max_tasks / 2);
      config.machine = dts::MachineModel::duplex_pcie();
      return dts::generate_trace(dts::ChemistryKernel::kCoupledClusterSD, config);
    case TraceKind::kCcsdDag:
      return dts::generate_ccsd_dag_trace(config);
  }
  throw std::logic_error("unknown trace kind");
}

dts::Instance shuffled(const dts::Instance& inst, std::uint64_t seed) {
  std::vector<dts::Task> tasks = inst.tasks();
  dts::Rng rng(seed);
  for (std::size_t i = tasks.size(); i > 1; --i) {
    std::swap(tasks[i - 1], tasks[rng.uniform_u64(0, i - 1)]);
  }
  return dts::Instance(std::move(tasks));
}

/// The instance as sent, before any machine binding.
dts::Instance submitted(const RequestSpec& spec) {
  dts::Instance inst = generate(spec);
  if (spec.shuffle_seed != 0) inst = shuffled(inst, spec.shuffle_seed);
  if (spec.bytes_only) inst = dts::strip_comm_times(inst);
  return inst;
}

const char* kind_name(TraceKind kind) {
  switch (kind) {
    case TraceKind::kHf: return "HF";
    case TraceKind::kHfNative: return "HF-native";
    case TraceKind::kCcsd: return "CCSD";
    case TraceKind::kCcsdDuplex: return "CCSD-duplex";
    case TraceKind::kCcsdDag: return "CCSD-DAG";
  }
  return "?";
}

}  // namespace

dts::Instance build_instance(const RequestSpec& spec) {
  dts::Instance inst = submitted(spec);
  if (spec.bytes_only) {
    inst = dts::bind(inst, dts::machine_from_name(kBytesOnlyMachine));
  }
  return inst;
}

std::string render_payload(const RequestSpec& spec) {
  std::ostringstream out;
  dts::write_trace(out, submitted(spec));
  return out.str();
}

std::string frame_header(const RequestSpec& spec, std::uint64_t id,
                         std::uint64_t epoch, std::size_t payload_bytes) {
  char capacity[64];
  std::snprintf(capacity, sizeof capacity, "%.17g", spec.capacity_factor);
  std::string header = "dts1 solve r" + std::to_string(id) + "\nsolver " +
                       spec.solver + "\ncapacity-factor " + capacity + "\n";
  if (spec.bytes_only) header += std::string("machine ") + kBytesOnlyMachine + "\n";
  if (epoch > 0) header += "seed " + std::to_string(epoch + 1) + "\n";
  header += "trace " + std::to_string(payload_bytes) + "\n";
  return header;
}

std::string describe(const RequestSpec& spec) {
  char text[192];
  std::snprintf(text, sizeof text,
                "%s trace seed %llu (%zu-%zu tasks%s%s), %s at %.2f mc",
                kind_name(spec.kind),
                static_cast<unsigned long long>(spec.trace_seed),
                spec.min_tasks, spec.max_tasks,
                spec.bytes_only ? ", bytes-only" : "",
                spec.shuffle_seed != 0 ? ", relabelled" : "",
                spec.solver.c_str(), spec.capacity_factor);
  return text;
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       double seconds) {
  Workload w;
  w.name = name;
  const double scale = std::max(1.0, seconds);
  if (name == "serve-cold") {
    // Every distinct trace is sent at all three capacity factors before
    // any (trace, capacity) pair repeats; each pair is its own cache key.
    w.connections = 2;
    w.workers = 2;
    // Twelve consecutive ids cover every trace kind at every capacity.
    w.cycle = 6;
    const auto traces = static_cast<std::size_t>(48.0 * scale);
    for (std::size_t round = 0; round < 3; ++round) {
      for (std::size_t t = 0; t < traces; ++t) {
        RequestSpec spec = cold_spec(seed, t, round);
        spec.payload = t;
        w.pool.push_back(spec);
      }
    }
    w.quality_specs = 96;
  } else if (name == "serve-warm") {
    w.connections = 1;
    w.workers = 2;
    w.epoch_seeds = false;
    constexpr std::size_t kShapes = 16;
    w.cycle = kShapes;
    constexpr std::size_t kOrders = 16;
    for (std::size_t s = 0; s < kShapes; ++s) w.fill.push_back(warm_shape(seed, s, kShapes));
    for (std::size_t k = 0; k < kShapes * kOrders; ++k) {
      RequestSpec spec = warm_shape(seed, k % kShapes, kShapes);
      spec.shuffle_seed = derive(seed, kShuffleStream, k) | 1;
      spec.payload = k;
      w.pool.push_back(spec);
    }
  } else if (name == "solve-scaling") {
    w.connections = 1;
    w.workers = 3;
    w.cycle = 6;
    for (std::size_t j = 0; j < 8 * w.cycle; ++j) {
      w.pool.push_back(scaling_spec(seed, j));
      w.pool.back().payload = j;
    }
    w.quality_specs = 6;
  } else if (name == "refine") {
    w.connections = 1;
    w.workers = 1;
    w.cycle = 18;
    const auto cycles = static_cast<std::size_t>(2.0 * scale);
    for (std::size_t j = 0; j < cycles * w.cycle; ++j) {
      w.pool.push_back(refine_spec(seed, j));
      w.pool.back().payload = j;
    }
    w.quality_specs = 72;
  } else {
    throw std::invalid_argument(
        "unknown workload '" + name +
        "' (expected serve-cold, serve-warm, solve-scaling or refine)");
  }
  return w;
}

ProbeInputs make_probe_inputs(std::uint64_t seed) {
  ProbeInputs in;
  for (std::size_t t = 0; t < 10; ++t) in.cold.push_back(cold_spec(seed, t, 0));
  for (std::size_t j = 0; j < 6; ++j) in.scaling.push_back(scaling_spec(seed, j));
  for (std::size_t j = 0; j < 18; ++j) {
    RequestSpec spec = refine_spec(seed, j);
    if (spec.solver == "local-search") {
      in.local_search.push_back(spec);
    } else if (spec.solver == "milp") {
      in.milp.push_back(spec);
    } else {
      in.branch_bound.push_back(spec);
    }
  }
  in.local_search.resize(3);
  return in;
}

RequestSpec known_infeasible_spec() {
  RequestSpec spec;
  spec.kind = TraceKind::kHfNative;
  spec.trace_seed = 107;
  spec.capacity_factor = 1.25;
  return spec;
}

}  // namespace perfbench
