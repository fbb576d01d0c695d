#!/usr/bin/env python3
"""Pipeline benchmark for the scalpel library.

Builds perfbench/ (an optimized build of the library sources plus the
pipeline_bench binaries), then repeats one workload's pipeline for the
measured interval and reports medians.

  python3 perfbench/run.py --workload campus-online --seed 3 --seconds 25 \\
      --trace 0

--trace 0 reports the end-to-end metrics of untraced pipelines. --trace 1
runs rounds of two untraced pipelines and one traced pipeline and reports
the per-layer metrics of the traced ones, the re-plan latency of the
untraced ones, and the tracing overhead between the two. The last
line of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}. The exit code is 0 only when every correctness check passed.

Every pipeline runs in its own process (peak RSS is per pipeline) with the
same seed, so the simulated statistics of all pipelines in a run must be
bit-identical; the benchmark checks that, too.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ["campus-online", "cells-lossy", "metro-loop", "metro-shard4"]

# The sum of the traced run's top-level spans must match its e2e_s within
# this share; otherwise time went unexplained and the run fails.
SPAN_TOLERANCE = 0.01

PIPELINE_TIMEOUT_S = 120

# name -> unit, in the order they are printed.
END_TO_END = {
    "e2e_s": "s",
    "setup_s": "s",
    "plan_s": "s",
    "sim_s": "s",
    "peak_rss_mb": "MB",
    "deadline_sat": "fraction",
    "lat_mean_ms": "ms",
    "accuracy": "fraction",
    "served_frac": "fraction",
}

PER_LAYER = {
    "core.joint.calls": "count",
    "core.joint.s_per_call": "s",
    "core.joint.iterations": "count",
    "core.joint.surgery_evals": "count",
    "surgery.exit_dp.us_per_call": "us",
    "surgery.distinct_share": "ratio",
    "core.online.ticks": "count",
    "core.online.self_s": "s",
    "core.online.resolves": "count",
    "core.online.failovers": "count",
    "core.online.degradations": "count",
    "core.online.fallbacks": "count",
    "core.online.useful_ratio": "ratio",
    "ctrl.ticks": "count",
    "ctrl.self_s": "s",
    "ctrl.local_solves": "count",
    "ctrl.plan_changes": "count",
    "ctrl.dead_letters": "count",
    "ctrl.useful_ratio": "ratio",
    "sim.events": "count",
    "sim.self_s": "s",
    "sim.self_ns_per_event": "ns",
    "sim.allocs_per_event": "count",
    "sim.barriers": "count",
    "sim.events_per_barrier": "count",
    "sim.parallel_speedup": "ratio",
    "sim.drop_frac": "fraction",
    "sim.lat_p50_ms": "ms",
    "sim.lat_p99_ms": "ms",
    "obs.export_s": "s",
    "obs.export_bytes": "bytes",
    "obs.trace_events": "count",
    "edge.build_s": "s",
    "bench.trace_overhead_frac": "ratio",
    "bench.span_coverage": "ratio",
    "replan_p50_ms": "ms",
    "replan_p90_ms": "ms",
    "replan_samples": "count",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures and builds perfbench/; returns the binary directory."""
    out = build_dir()
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", str(max(1, os.cpu_count() or 1))],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return out


class Run:
    """Accumulates pipelines and check results for one invocation."""

    def __init__(self, bindir, workload, seed, horizon, out_dir):
        self.bindir = bindir
        self.workload = workload
        self.seed = seed
        self.horizon = horizon
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.stamp = None

    def check(self, ok, what):
        """A failed cross-pipeline check counts as one failed operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def pipeline(self, traced, workload=None):
        workload = workload or self.workload
        exe = "pipeline_bench_traced" if traced else "pipeline_bench"
        cmd = [os.path.join(self.bindir, exe), "--workload", workload,
               "--seed", str(self.seed), "--trace", "1" if traced else "0",
               "--pipeline", str(self.attempted),
               "--out", self.out_dir]
        if self.horizon:
            cmd += ["--horizon", repr(self.horizon)]
        self.attempted += 1
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=PIPELINE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.failed += 1
            self.failures.append(f"{workload} pipeline timed out")
            return None
        doc = None
        lines = proc.stdout.strip().splitlines()
        if lines:
            try:
                doc = json.loads(lines[-1])
            except json.JSONDecodeError:
                doc = None
        if proc.returncode != 0 or doc is None or not doc.get("correct"):
            self.failed += 1
            detail = (doc or {}).get("checks", {}).get("failures") or \
                proc.stderr.strip()[-500:]
            self.failures.append(f"{workload} pipeline rc={proc.returncode}: "
                                 f"{detail}")
            return None
        self.stamp = doc["build"]
        return doc


def median(values):
    return statistics.median(values) if values else 0.0


def measure(run, seconds, traced):
    """Repeats pipelines until `seconds` are used; returns (plain, traced)."""
    plain, traced_docs = [], []
    start = time.monotonic()
    durations = []
    while True:
        t0 = time.monotonic()
        # A traced round runs two untraced pipelines per traced one, so one
        # round of cells-lossy pools the 100 solve ticks a p90 needs.
        for _ in range(2 if traced else 1):
            doc = run.pipeline(False)
            if doc:
                plain.append(doc)
        if traced:
            doc = run.pipeline(True)
            if doc:
                traced_docs.append(doc)
        durations.append(time.monotonic() - t0)
        elapsed = time.monotonic() - start
        # Start another round only if a typical one still fits.
        if elapsed + median(durations) > seconds:
            break
        if len(durations) >= 2 and not plain:
            break  # every pipeline is failing; stop early
    return plain, traced_docs


def check_identical(run, docs, what):
    sims = [d["sim"] for d in docs]
    run.check(all(s == sims[0] for s in sims), what)


def reference_check(run, docs):
    """metro-shard4 must reproduce metro-loop's statistics exactly."""
    if run.workload != "metro-shard4" or not docs:
        return
    ref = run.pipeline(False, workload="metro-loop")
    run.check(ref is not None and ref["sim"] == docs[0]["sim"],
              "metro-shard4 statistics differ from metro-loop's")


def end_to_end(plain):
    host = [d["host"] for d in plain]
    sim = plain[0]["sim"]
    values = {
        "e2e_s": median([h["e2e_s"] for h in host]),
        "setup_s": median([h["setup_s"] for h in host]),
        "plan_s": median([h["plan_s"] for h in host]),
        "sim_s": median([h["sim_s"] for h in host]),
        "peak_rss_mb": median([h["peak_rss_mb"] for h in host]),
        "deadline_sat": sim["deadline_sat"],
        "lat_mean_ms": sim["lat_mean_ms"],
        "accuracy": sim["accuracy"],
        "served_frac": sim["served_frac"],
    }
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}


def per_layer(run, plain, traced_docs):
    values = {}
    for name in PER_LAYER:
        samples = [d["layers"][name] for d in traced_docs
                   if name in d["layers"]]
        if samples:
            values[name] = median(samples)
    plain_e2e = median([d["host"]["e2e_s"] for d in plain])
    traced_e2e = median([d["host"]["e2e_s"] for d in traced_docs])
    values["bench.trace_overhead_frac"] = (traced_e2e - plain_e2e) / plain_e2e
    for name in ("drop_frac", "lat_p50_ms", "lat_p99_ms"):
        values["sim." + name] = plain[0]["sim"][name]
    # Re-plan latency is host time of the untraced pipelines: every control
    # tick that ran at least one solve, pooled across the run.
    replan = [s * 1e3 for d in plain for s in d["host"]["replan_s"]]
    values["replan_samples"] = float(len(replan))
    values["replan_p50_ms"] = median(replan)
    # A p90 needs at least ten samples beyond it, i.e. 100 in all.
    values["replan_p90_ms"] = statistics.quantiles(
        replan, n=10, method="inclusive")[8] if len(replan) >= 100 else 0.0
    for d in traced_docs:
        coverage = d["layers"]["bench.span_coverage"]
        run.check(abs(coverage - 1.0) <= SPAN_TOLERANCE,
                  f"top-level spans cover {coverage:.4f} of e2e_s "
                  f"(tolerance {SPAN_TOLERANCE})")
    missing = [k for k in PER_LAYER if k not in values]
    run.check(not missing, f"per-layer metrics missing: {missing}")
    return {k: {"value": values.get(k, 0.0), "unit": u}
            for k, u in PER_LAYER.items()}


def run_workload(bindir, workload, seed, seconds, trace, horizon):
    out_dir = os.path.join(ROOT, ".bench_out", workload)
    os.makedirs(out_dir, exist_ok=True)
    run = Run(bindir, workload, seed, horizon, out_dir)
    plain, traced_docs = measure(run, seconds, trace)
    docs = plain + traced_docs
    if docs:
        check_identical(run, docs, "simulated statistics differ between "
                        "pipelines of one seed")
    reference_check(run, docs)
    metrics = {}
    if plain and (traced_docs or not trace):
        metrics = per_layer(run, plain, traced_docs) if trace \
            else end_to_end(plain)
    else:
        run.check(False, "no pipeline completed")
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    report = {"workload": workload, "seed": seed, "trace": trace,
              "build": run.stamp, "failures": run.failures,
              "result": result, "pipelines": docs}
    path = os.path.join(ROOT, ".bench_out",
                        f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as f:
        json.dump(report, f)
    for failure in run.failures:
        log("check failed: " + failure)
    return result, run.stamp


def terminate(signum, _frame):
    # Unwinding through subprocess.run kills and reaps the running pipeline.
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, terminate)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--horizon", type=float, default=0.0,
                    help="simulated seconds (0 = the workload's own); "
                         "shortened runs are for smoke tests only")
    args = ap.parse_args()

    try:
        bindir = build()
    except (RuntimeError, OSError) as e:
        log(f"error: {e}")
        return 2

    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            result, stamp = run_workload(bindir, name, args.seed,
                                         args.seconds, bool(args.trace),
                                         args.horizon)
        except RuntimeError as e:
            log(f"error: {e}")
            return 2
        results[name] = result
        if stamp:
            print(f"# {name}: build=Release optimized={stamp['optimized']} "
                  f"sanitized={stamp['sanitized']} "
                  f"compiler={stamp['compiler']} cpu={stamp['cpu']}")
        if len(names) > 1:
            print(json.dumps({"workload": name, **result}))

    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
