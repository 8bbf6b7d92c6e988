/// Runtime micro-benchmarks (google-benchmark): scheduling cost of each
/// heuristic family versus task count, plus the building blocks (Johnson
/// sort, simulator, GG sequencing, validator) and the trace text codec
/// (number formatting, trace write and read, in MB/s, on an HF trace and
/// on a CCSD-DAG trace for a duplex machine). Not a paper
/// figure — this documents that every heuristic is cheap enough to run
/// inside a runtime system's scheduling loop, the paper's intended
/// deployment.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/johnson.hpp"
#include "core/registry.hpp"
#include "core/simulate.hpp"
#include "core/validate.hpp"
#include "exact/window_solver.hpp"
#include "heuristics/gilmore_gomory.hpp"
#include "support/rng.hpp"
#include "support/text.hpp"
#include "trace/generators.hpp"
#include "model/machine.hpp"
#include "trace/trace_io.hpp"

namespace {

using namespace dts;

Instance make_instance(std::size_t n) {
  Rng rng(n * 2654435761u + 17);
  std::vector<Task> tasks;
  tasks.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Time comm = rng.uniform(0.1, 10.0);
    tasks.push_back(Task{.id = 0,
                         .comm = comm,
                         .comp = rng.uniform(0.1, 10.0),
                         .mem = comm,
                         .name = {}});
  }
  return Instance(std::move(tasks));
}

void BM_JohnsonOrder(benchmark::State& state) {
  const Instance inst = make_instance(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(johnson_order(inst));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_JohnsonOrder)->Range(64, 4096)->Complexity(benchmark::oNLogN);

void BM_SimulateOrder(benchmark::State& state) {
  const Instance inst = make_instance(static_cast<std::size_t>(state.range(0)));
  const std::vector<TaskId> order = inst.submission_order();
  const Mem capacity = 1.5 * inst.min_capacity();
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulate_order(inst, order, capacity));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SimulateOrder)->Range(64, 4096)->Complexity();

void BM_GilmoreGomoryOrder(benchmark::State& state) {
  const Instance inst = make_instance(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(gilmore_gomory_order(inst));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_GilmoreGomoryOrder)->Range(64, 4096)->Complexity(benchmark::oNLogN);

void BM_Validate(benchmark::State& state) {
  const Instance inst = make_instance(static_cast<std::size_t>(state.range(0)));
  const Mem capacity = 1.5 * inst.min_capacity();
  const Schedule sched =
      simulate_order(inst, inst.submission_order(), capacity);
  for (auto _ : state) {
    benchmark::DoNotOptimize(validate_schedule(inst, sched, capacity));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Validate)->Range(64, 4096)->Complexity();

template <HeuristicId kId>
void BM_Heuristic(benchmark::State& state) {
  const Instance inst = make_instance(static_cast<std::size_t>(state.range(0)));
  const Mem capacity = 1.25 * inst.min_capacity();
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_heuristic(kId, inst, capacity));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Heuristic<HeuristicId::kOOSIM>)->Range(64, 2048)->Complexity();
BENCHMARK(BM_Heuristic<HeuristicId::kBP>)->Range(64, 2048)->Complexity();
BENCHMARK(BM_Heuristic<HeuristicId::kLCMR>)->Range(64, 2048)->Complexity();
BENCHMARK(BM_Heuristic<HeuristicId::kOOMAMR>)->Range(64, 2048)->Complexity();

void BM_WindowSolverLp4(benchmark::State& state) {
  const Instance inst = make_instance(static_cast<std::size_t>(state.range(0)));
  const Mem capacity = 1.25 * inst.min_capacity();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        schedule_windowed(inst, capacity, {.window = 4}));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_WindowSolverLp4)->Range(64, 512)->Complexity();

void BM_HfTraceGeneration(benchmark::State& state) {
  TraceConfig config;
  config.seed = 5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(generate_hf_trace(config));
  }
}
BENCHMARK(BM_HfTraceGeneration);

void BM_CcsdTraceGeneration(benchmark::State& state) {
  TraceConfig config;
  config.seed = 5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(generate_ccsd_trace(config));
  }
}
BENCHMARK(BM_CcsdTraceGeneration);

/// A byte-annotated HF trace of `n` tasks: integer mem, one channel, no
/// zeros and no dependency edges.
Instance hf_trace(std::size_t n) {
  TraceConfig config;
  config.seed = 5;
  config.min_tasks = n;
  config.max_tasks = n;
  return generate_hf_trace(config);
}

/// A CCSD-DAG trace of `n` tasks on duplex-pcie, the shape most dts1
/// request payloads have: fractional mem, a channel column, deps= lists
/// and the exact zero comp of every write-back task.
Instance dag_duplex_trace(std::size_t n) {
  TraceConfig config;
  config.seed = 5;
  config.min_tasks = n;
  config.max_tasks = n;
  config.machine = machine_from_name("duplex-pcie");
  return generate_ccsd_dag_trace(config);
}

using TraceMaker = Instance (*)(std::size_t);

std::string trace_text(const Instance& inst) {
  std::ostringstream out;
  write_trace(out, inst);
  return out.str();
}

void BM_AppendDouble(benchmark::State& state, TraceMaker make) {
  // Every number a trace record formats: comm, comp, mem and bytes.
  std::vector<double> values;
  for (const Task& t : make(4096)) {
    for (const double v : {t.comm, t.comp, t.mem, t.comm_bytes}) {
      if (std::isfinite(v)) values.push_back(v);
    }
  }
  std::string out;
  for (auto _ : state) {
    out.clear();
    for (const double v : values) append_double(out, v);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(values.size()));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(out.size()));
}
BENCHMARK_CAPTURE(BM_AppendDouble, hf, hf_trace);
BENCHMARK_CAPTURE(BM_AppendDouble, dag_duplex, dag_duplex_trace);

void BM_WriteTrace(benchmark::State& state, TraceMaker make) {
  const Instance inst = make(static_cast<std::size_t>(state.range(0)));
  const auto bytes = static_cast<std::int64_t>(trace_text(inst).size());
  for (auto _ : state) {
    std::ostringstream out;
    write_trace(out, inst);
    benchmark::DoNotOptimize(out.tellp());
  }
  state.SetBytesProcessed(state.iterations() * bytes);
}
BENCHMARK_CAPTURE(BM_WriteTrace, hf, hf_trace)->Range(512, 8192);
BENCHMARK_CAPTURE(BM_WriteTrace, dag_duplex, dag_duplex_trace)
    ->Range(512, 8192);

void BM_ReadTrace(benchmark::State& state, TraceMaker make) {
  const std::string text =
      trace_text(make(static_cast<std::size_t>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(read_trace(std::string_view(text)));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK_CAPTURE(BM_ReadTrace, hf, hf_trace)->Range(512, 8192);
BENCHMARK_CAPTURE(BM_ReadTrace, dag_duplex, dag_duplex_trace)
    ->Range(512, 8192);

}  // namespace
