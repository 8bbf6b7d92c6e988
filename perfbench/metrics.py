"""The benchmark's metric table: workloads, end-to-end metrics with their
regression bounds, and per-layer metrics with the end-to-end metric and
workload each one should move. BENCHMARK.json is generated from this
table (`python3 perfbench/metrics.py > BENCHMARK.json`) and a test keeps
the two equal; the per-layer targets live only here because the
BENCHMARK.json schema has no field for them."""

import json
import statistics

import benchstats

FAMILIES = ("baseline", "static", "dynamic", "corrected")
SCALING_SIZES = (2000, 4000, 8000)

WORKLOADS = [
    {"name": "serve-cold",
     "why": "closed loop, 2 connections, 2 workers: distinct 300-800-task HF, "
            "CCSD, duplex and DAG traces solved by auto, every request a cache "
            "miss, so the solver layers do the work"},
    {"name": "serve-warm",
     "why": "closed loop, 1 connection: 16 cached HF/CCSD shapes resent "
            "relabelled (some bytes-only), every request a hit, so parsing, "
            "canonicalization and re-costing do the work"},
    {"name": "solve-scaling",
     "why": "closed loop, 1 connection, 3 workers: HF and CCSD traces of 2000, "
            "4000 and 8000 tasks solved by auto, where quadratic list "
            "scheduling dominates"},
    {"name": "refine",
     "why": "closed loop, 1 connection: local search on 300-800-task traces, "
            "MILP and branch-and-bound on small instances they prove optimal"},
]

END_TO_END = [
    {"name": "makespan_ratio_mean", "unit": "ratio", "better": "lower", "bound": 0.06},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.15},
]

# Printed by every untraced run but left out of BENCHMARK.json, with why.
# A spread is the distance between the first and third quartile of ten
# runs (seeds 101-110) as a share of their median.
HOST_NOISE = ("on a shared 4-vCPU host whose speed drifts, its ten-run spread "
              "ranged 0.04-0.28 from one pass to the next (five runs of one "
              "seed and binary: 0.16 on serve-warm), past a third of the "
              "largest allowed bound (0.25) and at times past the bound "
              "itself; compare it over many paired runs")
REPORTED_ONLY = {
    "latency_p50_ms": HOST_NOISE,
    "throughput_ops_s": HOST_NOISE,
    "latency_p95_ms": "needs >= 200 samples (ten beyond p95); solve-scaling "
                      "and refine complete fewer per run",
    "failed_ratio": "0 on every kept workload, and a bounded metric must "
                    "never read 0; any unexpected failure makes the run "
                    "incorrect, and the result line carries failed/attempted",
}


def layer(name, unit, better, workload, target):
    return {"name": name, "unit": unit, "better": better, "workload": workload,
            "target": target}


PER_LAYER = (
    [layer("trace.read_trace.us", "us", "lower", "serve-warm", "latency_p50_ms"),
     layer("trace.read_trace.mb_s", "MB/s", "higher", "serve-warm", "throughput_ops_s"),
     layer("trace.payload_bytes", "count", "lower", "serve-warm", "throughput_ops_s"),
     layer("service.protocol.read_request.us", "us", "lower", "serve-warm", "latency_p50_ms"),
     layer("service.protocol.write_response.us", "us", "lower", "serve-warm", "latency_p50_ms"),
     layer("service.protocol.read_response.us", "us", "lower", "serve-warm", "latency_p50_ms"),
     layer("service.fingerprint.canonicalize.us", "us", "lower", "serve-warm", "latency_p50_ms"),
     layer("model.bind.us", "us", "lower", "serve-warm", "latency_p50_ms"),
     layer("core.compile.us", "us", "lower", "serve-cold", "latency_p50_ms"),
     layer("service.handle.us", "us", "lower", "serve-warm", "latency_p95_ms"),
     layer("service.socket.us", "us", "lower", "serve-warm", "latency_p95_ms"),
     layer("service.cache.hits", "count", "higher", "serve-warm", "failed_ratio"),
     layer("service.cache.misses", "count", "lower", "serve-cold", "failed_ratio"),
     layer("service.cache.coalesced", "count", "higher", "serve-cold", "failed_ratio"),
     layer("service.cache.hit_ratio", "ratio", "higher", "serve-warm", "failed_ratio"),
     layer("service.shed", "count", "lower", "serve-cold", "failed_ratio"),
     layer("service.errors", "count", "lower", "serve-cold", "failed_ratio"),
     layer("core.pool.queue_wait_ms", "ms", "lower", "serve-cold", "latency_p95_ms")]
    + [layer("heuristics.%s.ms" % f, "ms", "lower", "serve-cold", "latency_p50_ms")
       for f in FAMILIES]
    + [layer("heuristics.%s.ms_n%d" % (f, n), "ms", "lower", "solve-scaling",
             "throughput_ops_s")
       for f in FAMILIES for n in SCALING_SIZES]
    + [layer("heuristics.%s.exponent" % f, "slope", "lower", "solve-scaling",
             "throughput_ops_s")
       for f in FAMILIES]
    + [layer("heuristics.local_search.ms", "ms", "lower", "refine", "throughput_ops_s"),
       layer("heuristics.local_search.evaluations", "count", "lower", "refine",
             "throughput_ops_s"),
       layer("core.evaluate_order.evals_s", "evals/s", "higher", "refine", "throughput_ops_s"),
       layer("core.prefix_resume.tasks_simulated", "count", "lower", "refine",
             "throughput_ops_s"),
       layer("core.prefix_resume.tasks_resumed", "count", "higher", "refine",
             "throughput_ops_s"),
       layer("exact.branch_bound.ms", "ms", "lower", "refine", "latency_p50_ms"),
       layer("exact.branch_bound.pairs", "count", "lower", "refine", "latency_p50_ms"),
       layer("milp.ms", "ms", "lower", "refine", "latency_p50_ms"),
       layer("milp.nodes", "count", "lower", "refine", "latency_p50_ms"),
       layer("milp.lp_pivots", "count", "lower", "refine", "latency_p50_ms"),
       layer("milp.proved_ratio", "ratio", "higher", "refine", "latency_p50_ms"),
       layer("core.solve.evaluations", "count", "lower", "all", "makespan_ratio_mean"),
       layer("tracing.overhead_ms", "ms", "lower", "all", "latency_p50_ms")]
)

# Work counters the driver reports; each must repeat exactly for a seed.
COUNTERS = (
    "trace.payload_bytes", "service.cache.hits", "service.cache.misses",
    "service.cache.coalesced", "service.shed", "service.errors",
    "core.solve.evaluations", "heuristics.local_search.evaluations",
    "core.evaluate_order.evaluations", "core.prefix_resume.tasks_simulated",
    "core.prefix_resume.tasks_resumed", "exact.branch_bound.pairs",
    "milp.nodes", "milp.lp_pivots", "milp.proved", "milp.instances",
)


def benchmark_json():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 10,
        "workloads": [{"name": w["name"], "why": w["why"]} for w in WORKLOADS],
        "end_to_end": END_TO_END,
        "per_layer": [{"name": m["name"], "unit": m["unit"], "better": m["better"]}
                      for m in PER_LAYER],
    }


def end_to_end_values(result):
    return {
        "makespan_ratio_mean": statistics.fmean(result["makespan_ratios"]),
        "setup_s": statistics.median(result["setup_seconds"]),
        "peak_rss_mb": result["peak_rss_kib"] / 1024.0,
    }


def timing_values(result):
    """The end-to-end timings of the untraced requests."""
    latencies = result["latencies_ms"]
    return {
        "throughput_ops_s": len(latencies) / result["phase_seconds"],
        "latency_p50_ms": statistics.median(latencies),
        "latency_p95_ms": benchstats.supported_percentile(latencies, 95),
    }


def per_layer_values(result, spans):
    """Every PER_LAYER metric from a traced result and its aggregated
    spans (benchstats.aggregate_spans)."""
    counters = result["counters"]

    def self_us(name):
        return statistics.median(spans[name]["self_us"])

    def ms(name):
        return statistics.median(spans[name]["duration_us"]) / 1e3

    def total_s(name):
        return sum(spans[name]["duration_us"]) / 1e6

    latencies = result["latencies_ms"]
    traced = result["traced_latencies_ms"]
    outcomes = (counters["service.cache.hits"] + counters["service.cache.misses"]
                + counters["service.cache.coalesced"])
    values = {
        "trace.read_trace.us": self_us("trace.read_trace"),
        "trace.read_trace.mb_s":
            counters["trace.payload_bytes"] / 1e6 / total_s("trace.read_trace"),
        "trace.payload_bytes": counters["trace.payload_bytes"],
        "service.protocol.read_request.us": self_us("service.protocol.read_request"),
        "service.protocol.write_response.us": self_us("service.protocol.write_response"),
        "service.protocol.read_response.us": self_us("service.protocol.read_response"),
        "service.fingerprint.canonicalize.us": self_us("service.fingerprint.canonicalize"),
        "model.bind.us": self_us("model.bind"),
        "core.compile.us": self_us("core.compile"),
        "service.handle.us": self_us("service.handle"),
        "service.socket.us":
            1e3 * statistics.median(latencies) - self_us("service.handle"),
        "service.cache.hits": counters["service.cache.hits"],
        "service.cache.misses": counters["service.cache.misses"],
        "service.cache.coalesced": counters["service.cache.coalesced"],
        "service.cache.hit_ratio":
            counters["service.cache.hits"] / outcomes if outcomes else 0.0,
        "service.shed": counters["service.shed"],
        "service.errors": counters["service.errors"],
        "core.pool.queue_wait_ms":
            statistics.median(result["samples"]["core.pool.queue_wait_ms"]),
        "heuristics.local_search.ms": ms("heuristics.local_search"),
        "heuristics.local_search.evaluations":
            counters["heuristics.local_search.evaluations"],
        "core.evaluate_order.evals_s":
            counters["core.evaluate_order.evaluations"] / total_s("core.evaluate_order"),
        "core.prefix_resume.tasks_simulated": counters["core.prefix_resume.tasks_simulated"],
        "core.prefix_resume.tasks_resumed": counters["core.prefix_resume.tasks_resumed"],
        "exact.branch_bound.ms": ms("exact.branch_bound"),
        "exact.branch_bound.pairs": counters["exact.branch_bound.pairs"],
        "milp.ms": ms("milp.solve_order_milp"),
        "milp.nodes": counters["milp.nodes"],
        "milp.lp_pivots": counters["milp.lp_pivots"],
        "milp.proved_ratio": counters["milp.proved"] / counters["milp.instances"],
        "core.solve.evaluations": counters["core.solve.evaluations"],
        "tracing.overhead_ms":
            statistics.median(traced) - statistics.median(latencies),
    }
    for family in FAMILIES:
        base = "heuristics." + family
        values[base + ".ms"] = ms(base)
        times = []
        for n in SCALING_SIZES:
            durations = spans["%s.n%d" % (base, n)]["duration_us"]
            times.append(statistics.fmean(durations) / 1e3)
            values["%s.ms_n%d" % (base, n)] = times[-1]
        values[base + ".exponent"] = benchstats.loglog_exponent(SCALING_SIZES, times)
    return values


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
