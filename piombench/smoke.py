#!/usr/bin/env python3
"""ctest smoke of piom_bench (label `bench`).

    python3 smoke.py <path/to/piom_bench> <path/to/BENCHMARK.json>

Runs `piom_bench --smoke` twice in the current directory — the end-to-end
pass and the traced per-layer pass, each over every workload — and checks
that both exit 0, that no op failed (fail_ratio == 0 on every workload),
that every metric BENCHMARK.json names is present and finite for every
workload, and that the trace file is trace-event JSON with events in it.
"""
import json
import math
import subprocess
import sys
from pathlib import Path


def rows_of(path):
    return json.loads(Path(path).read_text())["results"]


def main():
    binary, bench_json = sys.argv[1], sys.argv[2]
    spec = json.loads(Path(bench_json).read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    out = Path.cwd() / "smoke-out"
    out.mkdir(exist_ok=True)
    errors = []

    passes = [("end_to_end", ["--json", str(out / "e2e.json")]),
              ("per_layer", ["--json", str(out / "layers.json"),
                             "--trace", str(out / "trace.json")])]
    for section, extra in passes:
        cmd = [binary, "--smoke"] + extra
        proc = subprocess.run(cmd, timeout=240)
        if proc.returncode != 0:
            errors.append(f"{' '.join(cmd)} exited {proc.returncode}")
            continue
        rows = rows_of(extra[1])
        values = {(r["workload"], r["metric"]): r["value"] for r in rows if "metric" in r}
        for r in rows:
            if r.get("kind") == "ops" and int(r["failed"]) != 0:
                errors.append(f"{section}: {r['workload']} failed {r['failed']} ops")
        for w in workloads:
            if section == "end_to_end" and values.get((w, "fail_ratio")) != 0:
                errors.append(f"{w}: fail_ratio {values.get((w, 'fail_ratio'))}")
            for m in spec[section]:
                v = values.get((w, m["name"]))
                if v is None or not math.isfinite(v):
                    errors.append(f"{section}: {w}/{m['name']} missing or not finite: {v}")

    trace = out / "trace.json"
    if trace.exists():
        events = json.loads(trace.read_text()).get("traceEvents")
        if not isinstance(events, list) or not events:
            errors.append("trace.json has no traceEvents")

    for e in errors:
        print(f"smoke FAIL: {e}")
    print("smoke", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
