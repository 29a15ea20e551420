#!/usr/bin/env python3
"""Self-test for piom_lint: every rule must fire exactly where the
fixtures plant a violation, stay silent on the fixtures' known-good
patterns, and stay silent on the real tree.

Run directly (registered as the `lint_self_test` ctest). Exit 0 on pass.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
FIXTURES = os.path.join(HERE, "fixtures")

sys.path.insert(0, HERE)
import piom_lint  # noqa: E402


# Every violation the fixtures contain — nothing more, nothing less.
EXPECTED = {
    (os.path.join(".github", "workflows", "ci.yml"), 4,
     "ctest-parallel-flag"),
    (os.path.join("src", "aio", "engine.cpp"), 4, "thread-owner"),
    (os.path.join("src", "env_knob.cpp"), 5, "env-knob"),
    (os.path.join("src", "env_knob.cpp"), 7, "env-knob"),
    (os.path.join("src", "env_knob.cpp"), 8, "env-knob"),
    (os.path.join("src", "env_knob.cpp"), 9, "env-knob"),
    (os.path.join("src", "callback_under_lock.cpp"), 10,
     "callback-under-lock"),
    (os.path.join("src", "callback_under_lock.cpp"), 15,
     "callback-under-lock"),
    (os.path.join("src", "callback_under_lock.cpp"), 20,
     "callback-under-lock"),
    (os.path.join("src", "relaxed_done.cpp"), 4, "relaxed-done-store"),
    (os.path.join("src", "reserved_tag.cpp"), 2, "reserved-tag-literal"),
    (os.path.join("src", "sched", "timer.cpp"), 4, "thread-owner"),
    (os.path.join("src", "sched", "timer.cpp"), 5, "thread-owner"),
    (os.path.join("src", "transport", "io_thread.cpp"), 3,
     "thread-owner"),
    (os.path.join("src", "transport", "raw_socket.cpp"), 6,
     "socket-syscall"),
    (os.path.join("src", "transport", "raw_socket.cpp"), 10,
     "socket-syscall"),
    (os.path.join("src", "use_after_complete.cpp"), 6,
     "use-after-complete"),
}


def fail(msg):
    print("test_lint: FAIL: %s" % msg)
    sys.exit(1)


def main():
    # 1. Fixtures: exact findings, each rule exercised.
    got = {(rel, line, rule)
           for rel, line, rule, _ in piom_lint.run(FIXTURES)}
    if got != EXPECTED:
        missing = EXPECTED - got
        surplus = got - EXPECTED
        fail("fixture findings mismatch\n  missing: %s\n  surplus: %s" %
             (sorted(missing), sorted(surplus)))
    rules_fired = {rule for _, _, rule in got}
    all_rules = {"use-after-complete", "callback-under-lock",
                 "reserved-tag-literal", "relaxed-done-store",
                 "ctest-parallel-flag", "thread-owner",
                 "socket-syscall", "env-knob"}
    if rules_fired != all_rules:
        fail("rules without fixture coverage: %s" %
             sorted(all_rules - rules_fired))

    # 2. The real tree must be clean (the repo invariant itself).
    repo_findings = piom_lint.run(REPO)
    if repo_findings:
        fail("real tree is not clean:\n  " + "\n  ".join(
            "%s:%d: [%s] %s" % f for f in repo_findings))

    # 3. CLI contract: exit 1 + one line per finding on fixtures, 0 on repo.
    lint = os.path.join(HERE, "piom_lint.py")
    proc = subprocess.run([sys.executable, lint, "--root", FIXTURES],
                          capture_output=True, text=True)
    if proc.returncode != 1:
        fail("CLI on fixtures: expected exit 1, got %d" % proc.returncode)
    if len(proc.stdout.strip().splitlines()) != len(EXPECTED):
        fail("CLI on fixtures: expected %d lines, got:\n%s" %
             (len(EXPECTED), proc.stdout))
    proc = subprocess.run([sys.executable, lint, "--root", REPO],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        fail("CLI on repo: expected exit 0, got %d\n%s" %
             (proc.returncode, proc.stdout))

    print("test_lint: PASS (%d fixture findings, repo clean)" %
          len(EXPECTED))
    return 0


if __name__ == "__main__":
    sys.exit(main())
