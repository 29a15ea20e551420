#!/usr/bin/env python3
"""Self-test for check_bench_json: the schema rules and the
committed-baseline provenance rule fire exactly where the fixtures plant
a violation, and the repo's own baselines pass.

Run directly (registered as the `bench_json_self_test` ctest). Exit 0 on
pass.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")
CHECK = os.path.join(HERE, "check_bench_json.py")

sys.path.insert(0, HERE)
import check_bench_json  # noqa: E402


def fail(msg):
    print("test_check_bench_json: FAIL: %s" % msg)
    sys.exit(1)


def fixture(name):
    return os.path.join(FIXTURES, name)


def run_cli(*files):
    return subprocess.run([sys.executable, CHECK, *files],
                          capture_output=True, text=True).returncode


def main():
    # 1. Rules on the fixtures: (file, baseline mode) -> valid?
    cases = {
        ("BENCH_recorded.json", False): True,
        ("BENCH_recorded.json", True): True,
        ("BENCH_unrecorded.json", False): True,   # fresh output: allowed
        ("BENCH_unrecorded.json", True): False,   # committed baseline: not
        ("BENCH_bad_schema.json", False): False,
        ("BENCH_bad_schema.json", True): False,
    }
    for (name, baseline), want in cases.items():
        got = check_bench_json.check_file(fixture(name), baseline)
        if got != want:
            fail("%s (baseline=%s): expected %s, got %s" %
                 (name, baseline, want, got))

    # 2. CLI: named files are fresh outputs, so an unrecorded one passes.
    if run_cli(fixture("BENCH_unrecorded.json")) != 0:
        fail("CLI rejected an unrecorded fresh output")
    if run_cli(fixture("BENCH_bad_schema.json")) != 1:
        fail("CLI accepted a schema violation")

    # 3. The no-argument mode over the real baselines must be green.
    if run_cli() != 0:
        fail("committed BENCH_*.json baselines do not pass "
             "(run bench/check_bench_json.py for the findings)")
    print("test_check_bench_json: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
