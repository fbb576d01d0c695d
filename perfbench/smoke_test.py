#!/usr/bin/env python3
"""Smoke test of the pipeline benchmark: a shortened run of every workload,
untraced and traced, must pass its correctness checks and print every
metric BENCHMARK.json names, with the unit it declares.

  python3 perfbench/smoke_test.py

Shortened runs use a short simulated horizon and a one-second measuring
interval, so their figures are not comparable to real runs.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SHORT_HORIZON = {"campus-online": 20.0, "cells-lossy": 20.0,
                 "metro-loop": 10.0, "metro-shard4": 10.0}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = spec["command"] + [
                "--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", str(trace),
                "--horizon", str(SHORT_HORIZON[workload])]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=600)
            tag = f"{workload} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{tag}: exit {proc.returncode}: "
                                f"{proc.stderr.strip()[-800:]}")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed",
                                  "metrics"]:
                problems.append(f"{tag}: result keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] != 0 or \
                    result["attempted"] < 1:
                problems.append(f"{tag}: correct={result['correct']} "
                                f"attempted={result['attempted']} "
                                f"failed={result['failed']}")
            metrics = result["metrics"]
            missing = sorted(set(expected[trace]) - set(metrics))
            unexpected = sorted(set(metrics) - set(expected[trace]))
            if missing or unexpected:
                problems.append(f"{tag}: missing {missing}, "
                                f"unexpected {unexpected}")
            for name, unit in expected[trace].items():
                m = metrics.get(name)
                if m is None:
                    continue
                if m.get("unit") != unit:
                    problems.append(f"{tag}: {name} unit {m.get('unit')} "
                                    f"!= {unit}")
                value = m.get("value")
                if not isinstance(value, (int, float)) or \
                        not math.isfinite(value):
                    problems.append(f"{tag}: {name} value {value!r}")
            print(f"ok  {tag}: {len(metrics)} metrics", flush=True)
    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
