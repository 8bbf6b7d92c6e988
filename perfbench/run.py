#!/usr/bin/env python3
"""Socket-to-response benchmark for `dts serve`.

Run from the repository root:

    python3 perfbench/run.py --workload serve-cold --seed 1 --seconds 10 --trace 0

Builds the dts library, the `dts` CLI and the load-generating driver
(perfbench/driver/) into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), then runs one workload. The driver starts
`dts serve` on an AF_UNIX socket, drives it with closed-loop clients for
the timed phase, and checks every response against a direct dts::solve()
and validate_schedule() after the phase. This script turns the driver's
raw measurements into metrics, prints a report, and prints one JSON
object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
reports its per-layer metrics, measured by a traced run with spans around
each layer call (see perfbench/metrics.py for what each one measures and
which end-to-end metric it should move).

Other modes:
    --self-check           run the traced workload twice with the same seed
                           and require identical work counters and
                           makespan_ratio_mean
    --inject-infeasible    make request 0 a known over-capacity case; it must
                           be counted as failed without aborting the run, and
                           the run stays correct only if the requests sent
                           with that case are its only failures

The workloads are the four of BENCHMARK.json: serve-cold, serve-warm,
solve-scaling and refine.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import benchstats  # noqa: E402
import metrics  # noqa: E402

DRIVER_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the targets; returns the two binaries."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j4", "--target", "dts",
                    "dts_perfbench"], check=True, stdout=sys.stderr)
    return (os.path.join(build_dir, "dts", "dts"),
            os.path.join(build_dir, "dts_perfbench"))


def run_driver(binaries, run_dir, args, trace, tag=""):
    dts, driver = binaries
    out = os.path.join(run_dir, "%s-s%d-t%d%s.json" % (args.workload, args.seed, trace, tag))
    command = [driver, "--dts=" + dts, "--workload=" + args.workload,
               "--seed=%d" % args.seed, "--seconds=%s" % args.seconds,
               "--trace=%d" % trace, "--out=" + out,
               # Relative, to stay within the AF_UNIX path limit.
               "--socket=" + os.path.relpath(os.path.join(run_dir, "s%d.sock" % os.getpid()))]
    if args.inject_infeasible:
        command.append("--inject-infeasible")
    subprocess.run(command, check=True, stdout=sys.stderr, timeout=DRIVER_TIMEOUT_S)
    with open(out) as f:
        return json.load(f)


def fmt(value):
    return "%.6g" % value


def p95_note(latencies):
    n = len(latencies)
    if benchstats.supported_percentile(latencies, 95) is not None:
        return "n=%d, %d beyond" % (n, benchstats.samples_beyond(n, 95))
    highest = benchstats.highest_supported_percentile(latencies)
    return "n=%d: fewer than %d samples beyond p95%s" % (
        n, benchstats.MIN_SAMPLES_BEYOND,
        "; p%g = %s ms" % (highest[0], fmt(highest[1])) if highest else "")


def report_end_to_end(result, values):
    latencies = result["latencies_ms"]
    timing = metrics.timing_values(result)
    failed = len(result["failures"])
    rows = [
        ("throughput_ops_s", timing["throughput_ops_s"], "ops/s",
         "%d completed in %.3f s" % (len(latencies), result["phase_seconds"])),
        ("latency_p50_ms", timing["latency_p50_ms"], "ms",
         "socket write to response read, n=%d" % len(latencies)),
        ("latency_p95_ms", timing["latency_p95_ms"], "ms", p95_note(latencies)),
        ("failed_ratio", failed / result["attempted"], "failed/attempted",
         "%d failed of %d attempted" % (failed, result["attempted"])),
        ("makespan_ratio_mean", values["makespan_ratio_mean"], "ratio",
         "makespan / OMIM over %d distinct instances" % len(result["makespan_ratios"])),
        ("setup_s", values["setup_s"], "s",
         "median of %s" % ", ".join(fmt(s) for s in result["setup_seconds"])),
        ("peak_rss_mb", values["peak_rss_mb"], "MB", "dts serve, from wait4()"),
    ]
    for name, value, unit, note in rows:
        shown = "-" if value is None else fmt(value)
        bounded = "" if name in values else ", not bounded"
        print("  %-22s %12s %-16s (%s%s)" % (name, shown, unit, note, bounded))
    for name, why in metrics.REPORTED_ONLY.items():
        print("  %s is not bounded: %s" % (name, why))
    print("  dts serve stats verb: %s" % ", ".join(
        "%s %s" % item for item in sorted(result["server_stats"].items())))


def report_layers(result, spans, values):
    print("  spans (median duration / median self time, microseconds):")
    for name in sorted(spans):
        entry = spans[name]
        print("    %-40s n=%-6d %12s %12s" % (
            name, entry["count"], fmt(statistics.median(entry["duration_us"])),
            fmt(statistics.median(entry["self_us"]))))
    print("  work counters:")
    for name in metrics.COUNTERS:
        print("    %-40s %d" % (name, result["counters"].get(name, 0)))
    print("  per-layer metrics (-> the end-to-end metric each should move):")
    for m in metrics.PER_LAYER:
        print("    %-40s %12s %-8s -> %s %s" % (
            m["name"], fmt(values[m["name"]]), m["unit"], m["workload"], m["target"]))


def unexpected_failures(result, inject_infeasible):
    """Failures that make the run incorrect: every failure (an error, shed
    or draining response, a wrong answer, an infeasible schedule), except
    with --inject-infeasible the infeasible schedules of the requests sent
    with the injected case. That case must then fail on request r0."""
    failures = result["failures"]
    if not inject_infeasible:
        return failures
    injected = {"r%d" % i for i in result["injected_ids"]}
    unexpected = [f for f in failures
                  if not (f.split(" ", 1)[0] in injected and ") infeasible: " in f)]
    if not any(f.startswith("r0 ") for f in failures):
        unexpected.append("r0 (the injected over-capacity case) did not fail validation")
    return unexpected


def self_check(binaries, run_dir, args):
    """Two traced runs, same seed: counters and quality must repeat."""
    first = run_driver(binaries, run_dir, args, 1, "-a")
    second = run_driver(binaries, run_dir, args, 1, "-b")
    ok = True
    for key in ("counters", "makespan_ratios"):
        if first[key] != second[key]:
            ok = False
            log("self-check: %s differ between two runs with seed %d" % (key, args.seed))
    print("self-check %s: %d counters, makespan_ratio_mean %s both runs" % (
        "passed" if ok else "FAILED", len(first["counters"]),
        fmt(metrics.end_to_end_values(first)["makespan_ratio_mean"])))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in metrics.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--inject-infeasible", action="store_true")
    args = parser.parse_args()

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    run_dir = os.path.join(build_dir, "runs")
    os.makedirs(run_dir, exist_ok=True)
    try:
        binaries = build(build_dir)
        if args.self_check:
            return self_check(binaries, run_dir, args)
        result = run_driver(binaries, run_dir, args, args.trace)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        log("perfbench: %s" % e)
        return 1

    print("workload %s: %s loop, %d connection(s), %d worker(s), seed %d, %s s%s" % (
        result["workload"], result["loop"], result["connections"], result["workers"],
        result["seed"], fmt(result["seconds"]), ", traced run" if args.trace else ""))
    for failure in result["failures"]:
        print("  FAILED %s" % failure)
    if args.trace:
        spans = benchstats.aggregate_spans(result["spans"])
        values = metrics.per_layer_values(result, spans)
        report_layers(result, spans, values)
        units = {m["name"]: m["unit"] for m in metrics.PER_LAYER}
        print("  tracing overhead: %s ms on latency_p50_ms" % fmt(values["tracing.overhead_ms"]))
    else:
        values = metrics.end_to_end_values(result)
        report_end_to_end(result, values)
        units = {m["name"]: m["unit"] for m in metrics.END_TO_END}

    unexpected = unexpected_failures(result, args.inject_infeasible)
    if unexpected:
        log("perfbench: %d unexpected failure(s), first: %s" % (len(unexpected), unexpected[0]))
    print(json.dumps({
        "correct": not unexpected,
        "attempted": result["attempted"],
        "failed": len(result["failures"]),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
