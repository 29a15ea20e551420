#!/usr/bin/env python3
"""Build piom_bench from this checkout and run one workload.

    python3 piombench/run.py --workload pingpong_nic --seed 1 --seconds 24 --trace 0

Run from the repository root. The build goes to .bench_build/piombench
(CMake, Release). --trace 0 runs the end-to-end pass and reports every
`end_to_end` metric of BENCHMARK.json; --trace 1 runs the per-layer pass
(ladder rungs, counters, spans; the Chrome trace lands next to the result
JSON under .bench_build/piombench/runs/) and reports every `per_layer`
metric. The last line of stdout is one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Exits non-zero, printing no result, when the build or the run fails.
"""
import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configure once, then build incrementally. True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(root / "piombench"), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs, "--target", "piom_bench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, cwd=root, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return True


def parse_report(path):
    """(metrics by name, ops row, end row) of a piom_bench --json file."""
    doc = json.loads(path.read_text())
    metrics, ops, end = {}, None, None
    for row in doc["results"]:
        if "metric" in row:
            metrics[row["metric"]] = row
        elif row.get("kind") == "ops":
            ops = row
        elif row.get("kind") == "end":
            end = row
    return metrics, ops, end


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    root = Path(__file__).resolve().parent.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"unknown workload {args.workload}")
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = root / ".bench_build" / "piombench"
    if not build(root, build_dir):
        return 1

    runs = build_dir / "runs"
    runs.mkdir(exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    out_json = runs / f"{stem}.json"
    out_json.unlink(missing_ok=True)
    cmd = [str(build_dir / "piom_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--json", str(out_json)]
    if args.trace:
        # One trace file per workload (the latest run): they run to MBs.
        cmd += ["--trace", str(runs / f"{args.workload}.trace.json")]
    try:
        proc = subprocess.run(cmd, cwd=root, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"piom_bench exceeded {RUN_TIMEOUT_S} s")
        return 1
    if not out_json.exists():
        log(f"piom_bench exited {proc.returncode} without a report")
        return 1
    metrics, ops, end = parse_report(out_json)
    if ops is None or end is None or end.get("complete") != 1:
        log(f"piom_bench exited {proc.returncode} with an incomplete report")
        return 1

    result = {}
    attempted, failed = int(ops["attempted"]), int(ops["failed"])
    correct = proc.returncode == 0 and failed == 0 and attempted > 0
    for m in wanted:
        row = metrics.get(m["name"])
        if row is None:
            log(f"metric {m['name']} missing from the report")
            return 1
        value = row["value"]
        if not math.isfinite(value) or row.get("valid") != 1:
            log(f"metric {m['name']} is not a valid measurement: {row}")
            correct = False
        result[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": result}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
