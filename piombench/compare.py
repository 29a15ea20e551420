#!/usr/bin/env python3
"""Compare two piom_bench result files against the bounds in BENCHMARK.json.

    python3 piombench/compare.py BASE.json NEW.json [--bounds BENCHMARK.json]
    python3 piombench/compare.py --self-test

BASE and NEW are `piom_bench --json` outputs (any set of workloads). One
row is printed per (metric, workload) pair that has a bound: both values,
the relative delta, and a verdict.

  ok          NEW is not worse than BASE by more than the metric's bound
  regressed   NEW is worse than BASE by more than the bound
  unresolved  the pair cannot be judged: missing on one side, a percentile
              without 10 samples beyond it, or a zero base

fail_ratio has no bound in BENCHMARK.json (it must stay 0, and the
benchmark contract forbids metrics that read 0); any increase regresses.
Exits 1 when any pair regressed, 2 on unusable input, 0 otherwise.
Standard library only.
"""
import argparse
import io
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load_results(path):
    """{(metric, workload): row} of one piom_bench --json file."""
    doc = json.loads(Path(path).read_text())
    rows = {}
    for row in doc.get("results", []):
        if "metric" in row and "workload" in row:
            rows[(row["metric"], row["workload"])] = row
    return rows


def load_bounds(path):
    """{metric: (better, bound)} from BENCHMARK.json's end_to_end list."""
    spec = json.loads(Path(path).read_text())
    bounds = {m["name"]: (m["better"], float(m["bound"])) for m in spec["end_to_end"]}
    bounds.setdefault("fail_ratio", ("lower", 0.0))
    return bounds


def judge(better, bound, base, new):
    """(delta, verdict) for one pair of rows (either may be None)."""
    if base is None or new is None:
        return None, "unresolved"
    b, n = base["value"], new["value"]
    if not (math.isfinite(b) and math.isfinite(n)):
        return None, "unresolved"
    if base.get("valid", 1) != 1 or new.get("valid", 1) != 1:
        return None, "unresolved"
    if b == 0:
        # Only an exact-zero metric (fail_ratio) may have a zero base.
        if bound == 0:
            return 0.0, "regressed" if n > 0 else "ok"
        return None, "unresolved"
    delta = (n - b) / abs(b)
    worse = delta if better == "lower" else -delta
    return delta, "regressed" if worse > bound else "ok"


def compare(base_rows, new_rows, bounds, out=sys.stdout):
    """Print the comparison table; return the verdict counts."""
    keys = sorted({k for k in list(base_rows) + list(new_rows) if k[0] in bounds},
                  key=lambda k: (k[1], k[0]))
    counts = {"ok": 0, "regressed": 0, "unresolved": 0}
    print(f"{'workload':18s} {'metric':12s} {'base':>12s} {'new':>12s} "
          f"{'delta':>8s} {'bound':>6s}  verdict", file=out)
    for metric, workload in keys:
        better, bound = bounds[metric]
        base, new = base_rows.get((metric, workload)), new_rows.get((metric, workload))
        delta, verdict = judge(better, bound, base, new)
        counts[verdict] += 1
        fmt = lambda row: f"{row['value']:12.6g}" if row is not None else f"{'-':>12s}"
        d = f"{delta * 100:+7.1f}%" if delta is not None else f"{'-':>8s}"
        print(f"{workload:18s} {metric:12s} {fmt(base)} {fmt(new)} {d} "
              f"{bound * 100:5.0f}%  {verdict}", file=out)
    print(f"{counts['ok']} ok, {counts['regressed']} regressed, "
          f"{counts['unresolved']} unresolved", file=out)
    return counts


def self_test():
    """Run the fixtures in fixtures/ and check every verdict."""
    fx = HERE / "fixtures"
    bounds = load_bounds(fx / "bounds.json")
    base = load_results(fx / "base.json")
    cases = {
        # new file -> expected verdict per (metric, workload)
        "within.json": {("op_p50_us", "w1"): "ok", ("ops_per_s", "w1"): "ok",
                        ("fail_ratio", "w1"): "ok", ("op_p99_us", "w1"): "unresolved",
                        ("setup_s", "w1"): "ok"},
        "regressed.json": {("op_p50_us", "w1"): "regressed",
                           ("ops_per_s", "w1"): "regressed",
                           ("fail_ratio", "w1"): "regressed",
                           ("op_p99_us", "w1"): "unresolved",
                           ("setup_s", "w1"): "ok"},
    }
    failures = []
    for name, expected in cases.items():
        new = load_results(fx / name)
        for (metric, workload), want in expected.items():
            better, bound = bounds[metric]
            _, got = judge(better, bound, base.get((metric, workload)),
                           new.get((metric, workload)))
            if got != want:
                failures.append(f"{name}: {metric}/{workload} -> {got}, want {want}")
        counts = compare(base, new, bounds, out=io.StringIO())
        if (counts["regressed"] > 0) != (name == "regressed.json"):
            failures.append(f"{name}: regression count {counts['regressed']}")
    # A pair missing on one side is unresolved, never ok.
    if judge("lower", 0.1, None, {"value": 1.0})[1] != "unresolved":
        failures.append("missing base not unresolved")
    for f in failures:
        print(f"self-test FAIL: {f}")
    print("self-test", "failed" if failures else "passed")
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", nargs="?")
    ap.add_argument("new", nargs="?")
    ap.add_argument("--bounds", default=str(HERE.parent / "BENCHMARK.json"))
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if not args.base or not args.new:
        ap.error("BASE and NEW result files are required")
    try:
        bounds = load_bounds(args.bounds)
        base, new = load_results(args.base), load_results(args.new)
    except (OSError, ValueError, KeyError) as e:
        print(f"compare.py: {e}", file=sys.stderr)
        return 2
    counts = compare(base, new, bounds)
    return 1 if counts["regressed"] else 0


if __name__ == "__main__":
    sys.exit(main())
