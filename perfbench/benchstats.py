"""The benchmark's arithmetic: percentiles, the scaling fit and span self
time. Pure functions over plain lists and dicts, tested by
perfbench/test_benchstats.py."""

import math

# A percentile is reported only when at least this many samples lie
# beyond it; otherwise it is a guess about the tail.
MIN_SAMPLES_BEYOND = 10


def percentile(values, q):
    """Nearest-rank q-th percentile (0 < q <= 100) of a non-empty list."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError("percentile must be in (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count, q):
    """How many of `count` samples rank strictly above the q-th
    percentile's nearest rank."""
    return count - max(1, math.ceil(q / 100.0 * count))


def supported_percentile(values, q, min_beyond=MIN_SAMPLES_BEYOND):
    """The q-th percentile, or None when fewer than `min_beyond` samples
    lie beyond it."""
    if not values or samples_beyond(len(values), q) < min_beyond:
        return None
    return percentile(values, q)


def highest_supported_percentile(values, candidates=(99.9, 99, 95, 90, 75, 50),
                                 min_beyond=MIN_SAMPLES_BEYOND):
    """(q, value) for the highest candidate percentile the sample
    supports, or None when even the lowest is unsupported."""
    for q in sorted(candidates, reverse=True):
        value = supported_percentile(values, q, min_beyond)
        if value is not None:
            return q, value
    return None


def loglog_exponent(sizes, times):
    """Least-squares slope of log(time) against log(size): the empirical
    complexity exponent (2 for a quadratic algorithm)."""
    if len(sizes) != len(times) or len(sizes) < 2:
        raise ValueError("need at least two (size, time) points")
    xs = [math.log(n) for n in sizes]
    ys = [math.log(t) for t in times]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0:
        raise ValueError("sizes must not all be equal")
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def covered_length(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of `intervals`."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Each span's duration minus the part of its interval that its child
    spans cover (children may overlap one another, or run on other
    threads and outlast the parent). Spans are dicts with start_us,
    end_us and parent (an index into `spans`, -1 for a root)."""
    children = [[] for _ in spans]
    for span in spans:
        if span["parent"] >= 0:
            children[span["parent"]].append((span["start_us"], span["end_us"]))
    return [
        (s["end_us"] - s["start_us"]) - covered_length(kids, s["start_us"], s["end_us"])
        for s, kids in zip(spans, children)
    ]


def aggregate_spans(spans):
    """Per span name: count, durations and self times (microseconds)."""
    by_name = {}
    for span, self_us in zip(spans, self_times(spans)):
        entry = by_name.setdefault(span["name"], {"count": 0, "duration_us": [],
                                                  "self_us": []})
        entry["count"] += 1
        entry["duration_us"].append(span["end_us"] - span["start_us"])
        entry["self_us"].append(self_us)
    return by_name
