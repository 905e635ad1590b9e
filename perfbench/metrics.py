"""The benchmark's arithmetic: percentiles, self times, spreads.

Kept apart from run.py so that test_metrics.py can check it directly.
"""

import json
import math
import statistics

# A percentile is reported only when at least this many samples lie
# beyond it.
MIN_BEYOND = 10

# CPU-bound times are reported at the speed of a host on which the
# reference kernel (HostSpeed in src/bench.h: sorting 16384 keys) takes
# this long. The 4-core host this benchmark was built on takes about
# that when its neighbours are quiet.
REFERENCE_MS = 1.0


def percentile(values, q):
    """Nearest-rank percentile: the smallest sample with at least a share
    `q` of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count, q):
    """How many of `count` samples lie strictly beyond the nearest-rank
    `q` percentile."""
    if count == 0:
        return 0
    return count - max(1, math.ceil(q * count))


def supported(count, q, min_beyond=MIN_BEYOND):
    """Whether `count` samples support the `q` percentile."""
    return samples_beyond(count, q) >= min_beyond


def median(values):
    return statistics.median(values) if values else 0.0


def at_reference_speed(series):
    """`series` (name -> samples) with every series "X" that has a
    reference series "X@ref" (the reference kernel's time when each sample
    was taken) rescaled to REFERENCE_MS: a time is multiplied by
    REFERENCE_MS / ref, a rate (a name ending in "_per_s") by
    ref / REFERENCE_MS. The "@ref" series are left out."""
    out = {name: values for name, values in series.items()
           if not name.endswith("@ref")}
    for name, refs in series.items():
        if not name.endswith("@ref"):
            continue
        base = name[:-len("@ref")]
        values = series.get(base, [])
        if len(values) != len(refs) or min(refs, default=1) <= 0:
            raise ValueError("%s does not match %s" % (name, base))
        if base.endswith("_per_s"):
            out[base] = [v * r / REFERENCE_MS for v, r in zip(values, refs)]
        else:
            out[base] = [v * REFERENCE_MS / r for v, r in zip(values, refs)]
    return out


def quartile_spread(values):
    """Distance between the first and third quartile as a share of the
    median, with the quartiles statistics.quantiles(values, n=4) gives."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else math.inf


def segment_pairs(values, segments):
    """Pairs the samples of alternating segments: samples in an even
    segment ran untraced, in an odd one traced. For each odd segment k
    with samples in segment k - 1 too, gives (median of k / median of
    k - 1, median of k - 1): the traced-over-untraced ratio and its base."""
    by_segment = {}
    for value, segment in zip(values, segments):
        by_segment.setdefault(int(segment), []).append(value)
    pairs = []
    for segment in sorted(by_segment):
        prior = by_segment.get(segment - 1)
        if segment % 2 == 1 and prior:
            base = median(prior)
            pairs.append((median(by_segment[segment]) / base, base))
    return pairs


# --- Spans -------------------------------------------------------------------

# Span names the program itself records, mapped to "<layer>.<operation>".
# The benchmark's own spans are already named that way.
_ENGINE_NAMES = {
    "diagnosis": "engine.request",
    "result_cache": "engine.result_cache",
    "queue_wait": "engine.queue_wait",
    "gather": "monitor.gather",
    "fleet_publish": "fleet.publish",
    "model_cache": "engine.model_cache",
    "detect_incident": "detect.incident",
    "workflow": "diads.workflow",
}


def operation_of(name):
    """The "<layer>.<operation>" a span name stands for."""
    if name in _ENGINE_NAMES:
        return _ENGINE_NAMES[name]
    if name.startswith("fetch:"):
        return "monitor.fetch"
    if name.startswith("module:"):
        return "diads." + name[len("module:"):].lower()
    return name


def layer_of(name):
    return operation_of(name).split(".", 1)[0]


def load_chrome_trace(path):
    """Spans from a Chrome trace the program exported, as dicts with id,
    parent, name, start and end (microseconds)."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    spans = []
    for event in events:
        if event.get("ph") != "X":
            continue
        args = event.get("args", {})
        start = float(event["ts"])
        spans.append({
            "id": int(args["span_id"]),
            "parent": int(args["parent_id"]),
            "name": event["name"],
            "start": start,
            "end": start + float(event["dur"]),
        })
    return spans


def union_length(intervals, lo, hi):
    """Length of the union of `intervals`, each clipped to [lo, hi]."""
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


def children_of(spans):
    children = {}
    for span in spans:
        if span["parent"]:
            children.setdefault(span["parent"], []).append(span)
    return children


def self_times(spans):
    """Self time of every span: its duration minus the part of it that the
    union of its children's intervals covers. Children may overlap one
    another (they can run on several worker threads)."""
    children = children_of(spans)
    out = {}
    for span in spans:
        kids = children.get(span["id"], [])
        covered = union_length([(k["start"], k["end"]) for k in kids],
                               span["start"], span["end"])
        out[span["id"]] = (span["end"] - span["start"]) - covered
    return out


def descendants(span_id, children):
    stack = list(children.get(span_id, []))
    while stack:
        span = stack.pop()
        yield span
        stack.extend(children.get(span["id"], []))


def self_time_table(spans):
    """Total self time (ms) and span count per operation."""
    selfs = self_times(spans)
    table = {}
    for span in spans:
        op = operation_of(span["name"])
        row = table.setdefault(op, {"self_ms": 0.0, "spans": 0})
        row["self_ms"] += selfs[span["id"]] / 1e3
        row["spans"] += 1
    return table


def coverage(spans, root_names):
    """Share of the wall time of the root spans named in `root_names` that
    their children cover: 1 minus the roots' self time over their
    duration. For a tree on one thread this equals the sum of the
    descendants' self times over the roots' wall time; children that run
    in parallel count once."""
    selfs = self_times(spans)
    wall = uncovered = 0.0
    for span in spans:
        if span["parent"] or span["name"] not in root_names:
            continue
        wall += span["end"] - span["start"]
        uncovered += selfs[span["id"]]
    return 1.0 - uncovered / wall if wall else 0.0


def durations_ms(spans, name):
    return [(s["end"] - s["start"]) / 1e3 for s in spans if s["name"] == name]
