#!/usr/bin/env python3
"""The DIADS benchmark.

    python3 perfbench/run.py --workload sweep --seed 42 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 42 --seconds 25

Builds diads_bench (perfbench/CMakeLists.txt, against the repository's
src/) under $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
runs one workload, checks its outputs, prints a human-readable table and,
as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list; with
--trace 1 its per_layer list, and the run also writes a Chrome trace and a
per-layer self-time table next to the build. `--workload all` runs the
four in turn and exits non-zero unless every check passed. See
perfbench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import metrics as m  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("sweep", "fabric_scale", "serving", "always_on")
# Root spans of each workload's units of work, whose wall time the layer
# self times must account for (obs.layer_coverage).
UNIT_ROOTS = {"sweep": {"bench.config"}, "fabric_scale": {"bench.config"},
              "serving": {"diagnosis"}, "always_on": {"bench.pass"}}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures and builds diads_bench; returns the binary's path."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                        "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4"],
                   check=True, stdout=sys.stderr)
    return build_dir, os.path.join(build_dir, "diads_bench")


def percentile_or_zero(values, q, notes, name):
    """The q-th percentile of `values` (the median for 0.5), noting when
    fewer than m.MIN_BEYOND samples lie beyond it."""
    if not values:
        return 0.0
    if not m.supported(len(values), q):
        notes.append("%s: %d samples, %d beyond p%g (below the rule of %d)" % (
            name, len(values), m.samples_beyond(len(values), q), q * 100,
            m.MIN_BEYOND))
    return m.median(values) if q == 0.5 else m.percentile(values, q)


def ratio(num, den):
    return num / den if den else 0.0


def mean(values):
    return sum(values) / len(values) if values else 0.0


def derive(workload, raw, spans, notes):
    """Every metric this run can give, by name. CPU-bound times and rates
    are taken at the reference host speed (metrics.at_reference_speed)."""
    s = m.at_reference_speed(raw["series"])
    v = raw["values"]
    out = {
        "host.reference_ms": m.median(s.get("host.reference_ms", [])),
        "setup_s": m.median(s.get("setup_s", [])),
        "peak_rss_mb": v.get("peak_rss_mb", 0.0),
        "diagnosis_ms_p50": percentile_or_zero(
            s.get("diagnosis_ms", []), 0.5, notes, "diagnosis_ms_p50"),
        "fleet_query_ms_p50": percentile_or_zero(
            s.get("fleet_query_ms", []), 0.5, notes, "fleet_query_ms_p50"),
    }
    if workload in ("sweep", "fabric_scale"):
        config = s.get("config_ms", [])
        out["config_ms_p50"] = percentile_or_zero(config, 0.5, notes,
                                                  "config_ms_p50")
        if workload == "sweep":
            out["config_ms_p90"] = percentile_or_zero(config, 0.9, notes,
                                                      "config_ms_p90")
        out["configs_per_s"] = ratio(len(config), sum(config) / 1e3)
        out["served_per_s"] = out["configs_per_s"]
        out["ingest_samples_per_s"] = ratio(
            sum(s.get("monitor.samples_appended", [])), sum(config) / 1e3)
        out["log_bytes_per_verdict"] = ratio(v.get("fleet.log_bytes_written", 0),
                                             v.get("fleet.log_appends", 0))
    elif workload == "serving":
        out["served_per_s"] = ratio(v.get("served", 0),
                                    v.get("served_window_s", 0))
        out["log_bytes_per_verdict"] = ratio(v.get("fleet.log_bytes_written", 0),
                                             v.get("fleet.log_appends", 0))
    else:
        # The unit of service here is an ingested monitoring sample; the
        # median over passes.
        out["served_per_s"] = m.median([
            ratio(appends, ms / 1e3) for appends, ms in zip(
                s.get("detect.appends_observed", []), s.get("pass_ms", []))])
        out["ingest_samples_per_s"] = m.median(s.get("ingest_samples_per_s", []))
        out["log_bytes_per_verdict"] = ratio(
            sum(s.get("fleet.log_bytes_written", [])),
            sum(s.get("fleet.log_appends", [])))
    diagnoses = s.get("diagnosis_ms", [])
    if workload in ("sweep", "serving", "always_on"):
        out["diagnosis_ms_p90"] = percentile_or_zero(diagnoses, 0.9, notes,
                                                     "diagnosis_ms_p90")
    if workload == "serving":
        out["diagnosis_ms_p99"] = percentile_or_zero(diagnoses, 0.99, notes,
                                                     "diagnosis_ms_p99")
        out["serving.generator_lag_ms_p99"] = percentile_or_zero(
            s.get("generator_lag_ms", []), 0.99, notes, "generator_lag_ms_p99")

    # Per-layer observations diads_bench recorded.
    for name in ("workload.run_scenario_ms", "san.load_events",
                 "san.components", "monitor.samples_appended", "db.q2_runs",
                 "apg.build_ms", "db.optimize_ms", "fleet.extract_verdict_ms",
                 "fleet.publish_ms", "fleet.log_append_ms", "fleet.recover_ms",
                 "fleet.records_replayed", "fleet.records_dropped",
                 "monitor.append_ns", "detect.append_overhead_ratio",
                 "detect.appends_observed", "detect.incidents",
                 "detect.false_positives", "detect.masked_faults"):
        if s.get(name):
            out[name] = m.median(s[name])
    if s.get("fleet_query_ms"):
        out["fleet.query_ms"] = m.median(s["fleet_query_ms"])
    if workload in ("sweep", "fabric_scale"):
        out["fleet.log_bytes_written"] = v.get("fleet.log_bytes_written", 0)
        for module in ("pd", "co", "da", "cr", "sd", "ia"):
            out["diads.%s_ms" % module] = m.median(s.get("diads.%s_ms" % module,
                                                         []))
        out["diads.diagnose_ms"] = m.median(diagnoses)
    else:
        out["fleet.log_bytes_written"] = (
            v["fleet.log_bytes_written"] if workload == "serving"
            else m.median(s.get("fleet.log_bytes_written", [])))
    if workload in ("serving", "always_on"):
        queue = s.get("engine.queue_wait_ms", [])
        out["engine.queue_wait_ms_p50"] = percentile_or_zero(
            queue, 0.5, notes, "engine.queue_wait_ms_p50")
        if workload == "serving":
            out["engine.queue_wait_ms_p99"] = percentile_or_zero(
                queue, 0.99, notes, "engine.queue_wait_ms_p99")
        if spans:
            for module in ("pd", "co", "da", "cr", "sd", "ia"):
                out["diads.%s_ms" % module] = m.median(
                    m.durations_ms(spans, "module:" + module.upper()))
            out["diads.diagnose_ms"] = m.median(_modules_per_request(spans))
    if workload == "serving":
        gather = s.get("monitor.gather_ms", [])
        out["monitor.gather_ms_p50"] = percentile_or_zero(
            gather, 0.5, notes, "monitor.gather_ms_p50")
        out["monitor.gather_ms_p99"] = percentile_or_zero(
            gather, 0.99, notes, "monitor.gather_ms_p99")
        out["monitor.fetches_per_diagnosis"] = mean(
            s.get("monitor.fetches_per_diagnosis", []))
        out["monitor.fetch_ms_p50"] = v.get("monitor.fetch_ms_p50", 0.0)
        out["engine.result_cache_lookups"] = v.get("engine.result_cache_lookups", 0)
        out["engine.result_cache_hit_ratio"] = ratio(
            v.get("engine.result_cache_hits", 0),
            v.get("engine.result_cache_lookups", 0))
        out["engine.model_cache_lookups"] = v.get("engine.model_cache_lookups", 0)
        out["engine.model_cache_hit_ratio"] = ratio(
            v.get("engine.model_cache_hits", 0),
            v.get("engine.model_cache_lookups", 0))
        for name in ("engine.coalesced", "engine.rejected", "engine.shed",
                     "engine.failed"):
            out[name] = v.get(name, 0)
    out["diads.ground_truth_misses"] = v.get("diads.ground_truth_misses", 0)
    pairs = s.get("trace_pair_ratio", [])
    bases = s.get("trace_pair_base_ms", [])
    if "diagnosis_segment" in s:
        # serving's traced run alternates untraced and traced segments.
        segment_pairs = m.segment_pairs(diagnoses, s["diagnosis_segment"])
        pairs = [r for r, _ in segment_pairs]
        bases = [base for _, base in segment_pairs]
    if pairs:
        out["obs.trace_overhead_ratio"] = m.median(pairs) - 1.0
        out["obs.trace_overhead_spread"] = m.quartile_spread(pairs)
        out["obs.trace_pairs"] = len(pairs)
        out["obs.trace_overhead_base_ms"] = m.median(bases)
    if spans:
        out["obs.layer_coverage"] = m.coverage(spans, UNIT_ROOTS[workload])
    return out


def _modules_per_request(spans):
    """Module time (ms) under each engine request root."""
    children = m.children_of(spans)
    totals = []
    for span in spans:
        if span["name"] != "diagnosis" or span["parent"]:
            continue
        modules = [d for d in m.descendants(span["id"], children)
                   if d["name"].startswith("module:")]
        if modules:
            totals.append(sum(d["end"] - d["start"] for d in modules) / 1e3)
    return totals


def write_self_time_table(spans, out_dir, workload, seed):
    table = m.self_time_table(spans)
    total = sum(row["self_ms"] for row in table.values())
    layers = {}
    for op, row in table.items():
        layer = m.layer_of(op)
        layers[layer] = layers.get(layer, 0.0) + row["self_ms"]
    lines = ["# Self time per operation, workload %s seed %d" % (workload, seed),
             "# self time = span duration minus the union of its children",
             "%-28s %12s %8s %8s" % ("operation", "self_ms", "share", "spans")]
    for op, row in sorted(table.items(), key=lambda kv: -kv[1]["self_ms"]):
        lines.append("%-28s %12.3f %7.2f%% %8d" % (
            op, row["self_ms"], 100 * ratio(row["self_ms"], total), row["spans"]))
    lines.append("")
    lines.append("%-28s %12s %8s" % ("layer", "self_ms", "share"))
    for layer, ms in sorted(layers.items(), key=lambda kv: -kv[1]):
        lines.append("%-28s %12.3f %7.2f%%" % (layer, ms,
                                               100 * ratio(ms, total)))
    text = "\n".join(lines) + "\n"
    with open(os.path.join(out_dir, "selftime.txt"), "w") as f:
        f.write(text)
    with open(os.path.join(out_dir, "selftime.json"), "w") as f:
        json.dump({"operations": table, "layers": layers}, f, indent=1,
                  sort_keys=True)
    return text


def run_workload(spec, build_dir, binary, workload, seed, seconds, trace):
    """Runs one workload and prints its report and result line. Returns
    None when diads_bench failed, else whether every check passed."""
    out_dir = os.path.join(build_dir, "out", "%s-seed%d-trace%d" % (
        workload, seed, trace))
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--out", out_dir, "--source-dir", ROOT]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=seconds + 120)
    except subprocess.TimeoutExpired:
        log("run.py: diads_bench timed out")
        return None
    if proc.returncode != 0 or not proc.stdout.strip():
        log("run.py: diads_bench failed with exit code %d" % proc.returncode)
        return None
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    spans = []
    trace_path = os.path.join(out_dir, "trace.json")
    if trace:
        spans = m.load_chrome_trace(trace_path)
    notes = []
    derived = derive(workload, raw, spans, notes)
    metrics = {}
    for metric in spec["per_layer" if trace else "end_to_end"]:
        value = float(derived.get(metric["name"], 0.0))
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}

    # Human-readable report.
    print("workload %s, seed %d, %g s, trace %d" % (workload, seed, seconds,
                                                    trace))
    print("sample counts: " + ", ".join(
        "%s=%d" % (k, len(vals)) for k, vals in sorted(raw["series"].items())
        if not k.endswith("@ref")))
    print("%-34s %16s  %s" % ("metric", "value", "unit"))
    for section in ("end_to_end", "per_layer"):
        for metric in spec[section]:
            if metric["name"] in derived:
                print("%-34s %16.6g  %s" % (metric["name"],
                                            derived[metric["name"]],
                                            metric["unit"]))
    for note in notes:
        print("note: " + note)
    if trace:
        print(write_self_time_table(spans, out_dir, workload, seed), end="")
        print("chrome trace: %s" % trace_path)
    for failure in raw["failures"]:
        print("FAILED: " + failure)

    bad = [name for name, entry in metrics.items()
           if not math.isfinite(entry["value"])
           or (not trace and entry["value"] <= 0)]
    for name in bad:
        print("FAILED: metric %s is %r" % (name, metrics[name]["value"]))
    correct = raw["failed"] == 0 and not bad
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return correct


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if not os.path.isdir(os.path.join(ROOT, "src")):
        log("run.py: no DIADS sources under %s/src" % ROOT)
        return 2
    try:
        build_dir, binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        log("run.py: build failed: %s" % error)
        return 2

    if args.workload != "all":
        correct = run_workload(spec, build_dir, binary, args.workload,
                               args.seed, args.seconds, args.trace)
        # A failed check is reported in the result line, not the exit code.
        return 2 if correct is None else 0
    # Every workload in turn; the exit code says whether all passed.
    results = [run_workload(spec, build_dir, binary, workload, args.seed,
                            args.seconds, args.trace)
               for workload in WORKLOADS]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
