#!/usr/bin/env python3
"""Performance-regression guard for the bench JSON outputs.

Compares a fresh CI bench run (BENCH_<bench>.json, written by
bench::write_rows in bench/bench_common.cpp) against its checked-in
baseline under bench/baselines/. Every bench writes one row shape:

  {"bench": ..., "rows": [{"workload": ..., "exact": {...},
                           "timings": {...}}, ...]}

Rows are keyed by (bench, workload), and the two sections of a row are
judged by two rules:

 * exact: makespans and ratios at %.17g, counts and names are functions
   of the seeded workload and the solver code alone. Every value must
   equal the baseline's; a change in either direction fails, and an
   intended change ships with a baseline refresh (--update).
 * timings: machine-dependent rates, higher is better. A value may fall
   up to 75% below the baseline before the job fails (the guard is
   against the fast path rotting, not against a slower CI runner); a
   gain beyond that is noted.

A row or value present in the candidate but not the baseline (a bench
just grew) is noted and covered after the next --update; one missing
from the candidate fails.

Usage:
  tools/check_bench_baseline.py BASELINE CANDIDATE
  tools/check_bench_baseline.py BASELINE CANDIDATE --update
  tools/check_bench_baseline.py --self-test

Exit status: 0 ok, 1 regression/missing rows (or failed self-test),
2 usage or I/O error.
"""

import json
import shutil
import sys
from decimal import Decimal

# How far below its baseline a timing may fall before the job fails.
TIMING_TOLERANCE = 0.75


def label(key, name=None):
    text = "/".join(key)
    return text if name is None else f"{text} {name}"


def parse_rows(text):
    """{(bench, workload): {"exact": {...}, "timings": {...}}}. Exact
    numbers stay Decimal, so equality is equality of the %.17g text the
    bench wrote, digit for digit."""
    data = json.loads(text, parse_float=Decimal)
    return {(data["bench"], row["workload"]): {
        "exact": row["exact"],
        "timings": {name: float(value)
                    for name, value in row["timings"].items()},
    } for row in data["rows"]}


def load_rows(path):
    try:
        with open(path) as handle:
            return parse_rows(handle.read())
    except (OSError, ValueError, KeyError, TypeError) as error:
        print(f"error: cannot read {path}: {error!r}", file=sys.stderr)
        sys.exit(2)


def compare(baseline, candidate):
    """Classify every guarded value. Returns a dict of line lists:
    changed, regressions and missing fail the run, the rest are notes."""
    result = {"changed": [], "regressions": [], "improvements": [],
              "missing": [], "new_rows": [], "new_values": [], "checked": 0}
    for key, base in sorted(baseline.items()):
        cand = candidate.get(key)
        if cand is None:
            result["missing"].append(label(key))
            continue
        for section in ("exact", "timings"):
            for name in sorted(set(cand[section]) - set(base[section])):
                result["new_values"].append(label(key, name))
            for name, base_value in sorted(base[section].items()):
                if name not in cand[section]:
                    result["missing"].append(label(key, name))
                    continue
                cand_value = cand[section][name]
                result["checked"] += 1
                if section == "exact":
                    if cand_value != base_value:
                        result["changed"].append(
                            f"{label(key, name)}: {base_value} -> "
                            f"{cand_value}")
                    continue
                if base_value <= 0.0:
                    continue
                delta = (cand_value - base_value) / base_value
                line = (f"{label(key, name)}: {base_value:.6g} -> "
                        f"{cand_value:.6g} ({100.0 * delta:+.2f}%)")
                if delta < -TIMING_TOLERANCE:
                    result["regressions"].append(line)
                elif delta > TIMING_TOLERANCE:
                    result["improvements"].append(line)
    result["new_rows"] = [label(key)
                          for key in sorted(set(candidate) - set(baseline))]
    return result


def failed(result):
    return bool(result["changed"] or result["regressions"] or
                result["missing"])


def run_self_test():
    """Negative tests: the guard must still catch each regression class
    and must not fail on benign growth (new rows, new values)."""
    base = parse_rows("""{"bench": "solve_throughput", "rows": [
        {"workload": "HF/single",
         "exact": {"median_tasks": 496, "candidates": 18846,
                   "median_makespan_seconds": 0.058465472823386086,
                   "best_heuristic": "BP"},
         "timings": {"fastpath_candidate_evals_per_sec": 1847804.12217,
                     "candidate_eval_speedup": 22.2945076802}}]}""")

    def tweak(section, **overrides):
        out = {key: {"exact": dict(row["exact"]),
                     "timings": dict(row["timings"])}
               for key, row in base.items()}
        for row in out.values():
            row[section].update(overrides)
        return out

    failures = []

    def expect(name, result, fails, improvements=0, new_values=0):
        if failed(result) != fails:
            got = result["changed"] + result["regressions"] + result["missing"]
            failures.append(f"{name}: expected fail={fails}, got {got}")
        if len(result["improvements"]) != improvements:
            failures.append(f"{name}: expected {improvements} improvement "
                            f"note(s), got {result['improvements']}")
        if len(result["new_values"]) != new_values:
            failures.append(f"{name}: expected {new_values} new-value "
                            f"note(s), got {result['new_values']}")

    expect("identical rows", compare(base, base), False)

    # Exact values: any change fails, in either direction.
    expect("makespan drift in the 17th digit",
           compare(base, tweak("exact", median_makespan_seconds=Decimal(
               "0.058465472823386087"))),
           True)
    expect("makespan drop fails too",
           compare(base, tweak("exact",
                               median_makespan_seconds=Decimal("0.05"))),
           True)
    expect("count off by one",
           compare(base, tweak("exact", candidates=18847)), True)
    expect("changed winner",
           compare(base, tweak("exact", best_heuristic="OS")), True)

    # Timings: higher is better, lax tolerance.
    expect("speedup collapse fails",
           compare(base, tweak("timings", candidate_eval_speedup=2.0)), True)
    expect("machine-noise drop passes",
           compare(base, tweak("timings", candidate_eval_speedup=15.0,
                               fastpath_candidate_evals_per_sec=1.0e6)),
           False)
    expect("timing gain is a note",
           compare(base, tweak("timings", candidate_eval_speedup=45.0)),
           False, improvements=1)

    # Missing coverage fails; growth never does.
    dropped = tweak("exact")
    for row in dropped.values():
        del row["exact"]["candidates"]
    expect("dropped value fails", compare(base, dropped), True)
    expect("missing row fails", compare(base, {}), True)
    expect("new value is a note",
           compare(base, tweak("exact", evaluations=123)), False,
           new_values=1)
    grown = dict(base)
    grown[("solve_throughput", "CCSD/duplex")] = {"exact": {}, "timings": {}}
    result = compare(base, grown)
    expect("new row is a note", result, False)
    if result["new_rows"] != ["solve_throughput/CCSD/duplex"]:
        failures.append(f"new row note missing: {result['new_rows']}")

    if failures:
        for line in failures:
            print(f"FAIL {line}")
        print(f"bench-baseline self-test: {len(failures)} failure(s)",
              file=sys.stderr)
        return 1
    print("bench-baseline self-test: all regression classes caught, "
          "benign growth passes")
    return 0


def report(title, lines):
    if lines:
        print(title)
        for line in lines:
            print(f"  {line}")


def main(argv):
    args = argv[1:]
    if args == ["--self-test"]:
        return run_self_test()
    update = "--update" in args
    positional = [arg for arg in args if arg != "--update"]
    if len(positional) != 2 or any(arg.startswith("-") for arg in positional):
        print(__doc__, file=sys.stderr)
        return 2
    baseline_path, candidate_path = positional

    if update:
        shutil.copyfile(candidate_path, baseline_path)
        print(f"baseline refreshed: {candidate_path} -> {baseline_path}")
        return 0

    result = compare(load_rows(baseline_path), load_rows(candidate_path))
    report("timing gains (refresh the baseline with --update to lock them "
           "in):", result["improvements"])
    report("rows not in the baseline (covered after the next --update):",
           result["new_rows"])
    report("values not in the baseline (covered after the next --update):",
           result["new_values"])
    report("BASELINE ROWS/VALUES MISSING FROM THE CANDIDATE RUN:",
           result["missing"])
    report("EXACT VALUES CHANGED (an intended change ships with --update):",
           result["changed"])
    report(f"TIMING REGRESSIONS (> {100.0 * TIMING_TOLERANCE:.0f}% below "
           "baseline):", result["regressions"])
    if failed(result):
        return 1
    print(f"perf guard ok: {result['checked']} values checked against "
          f"{baseline_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
