#pragma once

/// \file probes.hpp
/// The traced run's in-process layer probes. Each probe calls one layer's
/// public functions directly, with a span around every call, and counts
/// the deterministic work those calls report. Nothing here touches the
/// socket: the end-to-end numbers come from main.cpp's client loop.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "tracer.hpp"
#include "workloads.hpp"

namespace perfbench {

struct ProbeReport {
  /// Deterministic work counts: equal across runs with the same seed.
  std::map<std::string, std::uint64_t> counters;
  /// Measured values that are not spans (per-job pool queue waits, ms).
  std::map<std::string, std::vector<double>> samples;
};

/// Replays the first `requests` requests of the workload through the
/// service's request path in process: read_request, read_trace, bind,
/// canonicalization, compile, SolverService::handle, write_response and
/// read_response. serve-warm fills the in-process cache first, as its
/// set-up does. Also times SolverPool queue waits on the same requests
/// with the workload's connection and worker counts.
void probe_request_path(const Workload& workload,
                        const std::vector<std::string>& payloads,
                        std::size_t requests, Tracer& tracer,
                        ProbeReport& report);

/// The solver layers on the seed's probe inputs: every auto family on
/// serve-cold traces and on each solve-scaling size, local search, the
/// evaluate_order / PrefixResumeEvaluator neighbourhood scans of its
/// orders, branch-and-bound and the MILP.
void probe_solver_layers(const ProbeInputs& inputs, Tracer& tracer,
                         ProbeReport& report);

}  // namespace perfbench
