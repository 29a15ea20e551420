#!/usr/bin/env python3
"""Schema gate for BENCH_*.json result files.

Every committed baseline at the repo root and every freshly produced
--json file must follow the layout documented in bench/README.md:

    {
      "bench":  "<binary name>",
      "commit": "<short sha | 'unrecorded'>",
      "date":   "YYYY-MM-DD",
      "host":   {"cpus": <int >= 1>, "os": "<str>", ["model": "<str>"]},
      "args":   ["--quick", ...],
      "results": [ {<row>}, ... ]        # non-empty; one object per table row
    }

Row values may be numbers, strings, or one level of {"series": number}
nesting (e.g. per-engine latencies keyed by engine name). CI runs this
over the repo baselines *and* the quick-run outputs, so format drift
fails the build instead of rotting silently.

Committed baselines must also say where they came from: in the
no-argument mode a "commit" of "unrecorded" fails (record with
$PIOM_BENCH_COMMIT set). Fresh outputs named on the command line may
stay unrecorded.

Usage: check_bench_json.py [file.json ...]
       (no arguments: validate every BENCH_*.json in the repo root as a
       committed baseline)
"""

import glob
import json
import os
import sys

TOP_LEVEL_KEYS = {"bench", "commit", "date", "host", "args", "results"}


def fail(path, msg):
    print(f"{path}: {msg}", file=sys.stderr)
    return False


def check_scalar(path, where, value):
    """Leaf row values: numbers or strings (no null, no bool)."""
    if isinstance(value, bool) or value is None:
        return fail(path, f"{where}: bools/nulls are not valid cell values")
    if not isinstance(value, (int, float, str)):
        return fail(path, f"{where}: unexpected cell type {type(value).__name__}")
    return True


def check_file(path, baseline=False):
    """Validate one file; `baseline` adds the committed-baseline rules."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return fail(path, f"unreadable or invalid JSON: {e}")

    if not isinstance(doc, dict):
        return fail(path, "top level must be an object")
    missing = TOP_LEVEL_KEYS - doc.keys()
    if missing:
        return fail(path, f"missing top-level keys: {sorted(missing)}")
    unknown = doc.keys() - TOP_LEVEL_KEYS
    if unknown:
        return fail(path, f"unknown top-level keys (schema drift): {sorted(unknown)}")

    ok = True
    for key in ("bench", "commit", "date"):
        if not isinstance(doc[key], str) or not doc[key]:
            ok = fail(path, f"'{key}' must be a non-empty string")
    if baseline and doc["commit"] == "unrecorded":
        ok = fail(path, "committed baseline has commit 'unrecorded' "
                        "(re-record it with PIOM_BENCH_COMMIT set)")

    host = doc["host"]
    if not isinstance(host, dict):
        ok = fail(path, "'host' must be an object")
    else:
        if not isinstance(host.get("cpus"), int) or host.get("cpus", 0) < 1:
            ok = fail(path, "'host.cpus' must be an integer >= 1")
        if not isinstance(host.get("os"), str):
            ok = fail(path, "'host.os' must be a string")
        extra = host.keys() - {"cpus", "os", "model"}
        if extra:
            ok = fail(path, f"unknown 'host' keys: {sorted(extra)}")

    args = doc["args"]
    if not isinstance(args, list) or not all(isinstance(a, str) for a in args):
        ok = fail(path, "'args' must be a list of strings")

    results = doc["results"]
    if not isinstance(results, list) or not results:
        ok = fail(path, "'results' must be a non-empty list (a bench that "
                        "produced no rows is a broken bench)")
    else:
        for i, row in enumerate(results):
            where = f"results[{i}]"
            if not isinstance(row, dict) or not row:
                ok = fail(path, f"{where}: each row must be a non-empty object")
                continue
            for k, v in row.items():
                if not isinstance(k, str):
                    ok = fail(path, f"{where}: non-string key")
                elif isinstance(v, dict):
                    # One nesting level: named series of numbers.
                    if not v:
                        ok = fail(path, f"{where}.{k}: empty series object")
                    for sk, sv in v.items():
                        if isinstance(sv, bool) or not isinstance(sv, (int, float)):
                            ok = fail(path, f"{where}.{k}.{sk}: series values "
                                            "must be numbers")
                elif not check_scalar(path, f"{where}.{k}", v):
                    ok = False
    return ok


def main(argv):
    files = argv[1:]
    baseline = not files
    if baseline:
        repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        files = sorted(glob.glob(os.path.join(repo_root, "BENCH_*.json")))
    if not files:
        print("check_bench_json: no files to check", file=sys.stderr)
        return 1
    bad = [f for f in files if not check_file(f, baseline)]
    if bad:
        print(f"check_bench_json: {len(bad)}/{len(files)} file(s) FAILED",
              file=sys.stderr)
        return 1
    print(f"check_bench_json: {len(files)} file(s) OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
