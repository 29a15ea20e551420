#!/usr/bin/env python3
"""piom_lint: repo-invariant linter for the piom tree.

Dependency-free (stdlib only) and line-based: each rule encodes an
invariant that once shipped a real bug and that the type system (and the
clang thread-safety analysis) cannot express. See docs/static-analysis.md
for the catalogue and the history behind each rule.

Rules
-----
  use-after-complete   A completion store (`x->done.store(1, release)` or
                       `x.core.complete()`) must be the last touch of `x`
                       in its scope: the owner may recycle the object the
                       instant the store lands.
  callback-under-lock  No std::function-typed callback may be invoked
                       textually inside a sync::SpinLock critical section
                       (the repo's spinlocks are not reentrant; callbacks
                       are user code that may re-enter).
  reserved-tag-literal Reserved-tag-space literals (0xffff...-shaped) may
                       only be spelled in src/nmad/types.hpp.
  relaxed-done-store   Completion stores to `done`-named atomics must not
                       be memory_order_relaxed (resets to 0/false are
                       fine; the 1/true store publishes every prior
                       write).
  ctest-parallel-flag  CI must spell `ctest --parallel N`, never bare
                       `ctest ... -j` (a bare -j swallows the next
                       argument).
  thread-owner         No thread may be spawned or owned anywhere in src/
                       except src/sched/runtime.{hpp,cpp}: the Runtime's
                       workers and its interrupt thread are the only
                       threads the library starts; transport backends,
                       devices and hooks are progressed from them (static
                       members such as std::thread::hardware_concurrency
                       are fine).
  socket-syscall       Raw ::socket/socketpair/bind/listen/accept/connect
                       calls belong in src/transport/socket.cpp only:
                       every setup socket goes through its helpers, so
                       there is one listen, connect, accept and hello
                       (qualified names such as TcpTransport::listen are
                       not calls to the syscall).
  env-knob             Every util::env::* / getenv read in src/ (outside
                       src/util/env.cpp, the front door itself) must name,
                       as a string literal, a variable listed in the
                       "Environment knobs" table of docs/architecture.md:
                       a knob nobody documents is one nobody sets.

Usage: piom_lint.py [--root DIR]
Scans DIR/src (C++ rules, env-knob against DIR/docs/architecture.md) and
DIR/.github (CI rule). Prints one
`path:line: [rule-id] message` per finding; exit 1 when anything fired.
"""

import argparse
import os
import re
import sys

CPP_EXTS = (".hpp", ".cpp")

# ---------------------------------------------------------------------------
# Source preprocessing: blank out comments and string/char literals so the
# rules match code only. Line count (and therefore line numbers) is
# preserved; blanked spans become spaces.
# ---------------------------------------------------------------------------


def strip_comments_and_strings(text):
    out = []
    i = 0
    n = len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
            elif c == '"':
                state = "string"
                out.append(" ")
                i += 1
            elif c == "'":
                state = "char"
                out.append(" ")
                i += 1
            else:
                out.append(c)
                i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        elif state == "string":
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == '"':
                state = "code"
                out.append(" ")
                i += 1
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        else:  # char
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == "'":
                state = "code"
                out.append(" ")
                i += 1
            else:
                out.append(c if c == "\n" else " ")
                i += 1
    return "".join(out)


# ---------------------------------------------------------------------------
# Global passes: names of sync::SpinLock variables and std::function-typed
# callables, collected across the whole tree (a .cpp uses locks its header
# declares).
# ---------------------------------------------------------------------------

SPINLOCK_DECL = re.compile(r"\bsync::SpinLock\s+(\w+)\s*;")
FUNCTION_DECL = re.compile(r"\bstd::function\s*<[^;=]*>\s+(\w+)\s*[;={(]")
FUNCTION_VEC_DECL = re.compile(
    r"\bstd::vector\s*<\s*std::function\b[^;=]*>\s*>\s+(\w+)\s*[;={(]")
FUNCTION_ALIAS = re.compile(r"\busing\s+(\w+)\s*=\s*std::function\b")


def collect_global_names(cpp_files):
    spinlocks = set()
    callbacks = set()
    cb_containers = set()
    aliases = set()
    stripped = {}
    for path in cpp_files:
        with open(path, encoding="utf-8", errors="replace") as f:
            stripped[path] = strip_comments_and_strings(f.read())
    for text in stripped.values():
        for m in SPINLOCK_DECL.finditer(text):
            spinlocks.add(m.group(1))
        for m in FUNCTION_DECL.finditer(text):
            callbacks.add(m.group(1))
        for m in FUNCTION_VEC_DECL.finditer(text):
            cb_containers.add(m.group(1))
        for m in FUNCTION_ALIAS.finditer(text):
            aliases.add(m.group(1))
    # Second pass: variables declared with a std::function alias type
    # (e.g. `ForwardHandler forward_;`, `GateConnector connector_;`).
    if aliases:
        alias_decl = re.compile(
            r"\b(?:" + "|".join(sorted(aliases)) + r")\s+(\w+)\s*[;={(]")
        for text in stripped.values():
            for m in alias_decl.finditer(text):
                callbacks.add(m.group(1))
    return spinlocks, callbacks, cb_containers, stripped


# ---------------------------------------------------------------------------
# C++ rules (line-based scan with brace-depth tracking)
# ---------------------------------------------------------------------------

COMPLETE_STORE = re.compile(
    r"\b(\w+)\s*(?:->|\.)\s*(?:done\.store\s*\(\s*(?:1|true)\b"
    r"|core\.complete\s*\(\s*\)"
    r"|complete\s*\(\s*\))")
RELAXED_DONE = re.compile(
    r"\b\w*done\w*\.store\s*\(\s*(?:1|true)\b[^;]*memory_order_relaxed")
RESERVED_TAG = re.compile(r"0[xX][fF]{4,}")
THREAD_SPAWN = re.compile(r"\bstd::j?thread\b(?!\s*::)|\bpthread_create\b")
THREAD_OWNERS = ("src/sched/runtime.hpp", "src/sched/runtime.cpp")
SOCKET_SYSCALL = re.compile(
    r"(?<![\w:])::(?:socket|socketpair|bind|listen|accept|connect)\s*\(")
SOCKET_HELPER = "src/transport/socket.cpp"
FOR_RANGE = re.compile(r"\bfor\s*\(.*?[&\s](\w+)\s*:\s*(\w+)\s*\)")


def scan_cpp(rel, text, spinlocks, callbacks, cb_containers, findings):
    lines = text.split("\n")
    rel_posix = rel.replace(os.sep, "/")
    thread_owner = rel_posix in THREAD_OWNERS
    socket_helper = rel_posix == SOCKET_HELPER
    depth = 0
    # (name, depth, store_line): objects whose completion store has landed.
    completed = []
    # (lock_name, kind, depth): kind 'manual' (until .unlock()) or
    # 'guard' (until the declaring scope closes).
    held = []
    # Range-for loop variables that iterate a std::function container.
    local_cbs = {}

    call_res = {}

    def cb_call_re(name):
        if name not in call_res:
            call_res[name] = re.compile(r"\b" + re.escape(name) + r"\s*\(")
        return call_res[name]

    guard_re = re.compile(
        r"\bsync::LockGuard\s*<[^>]*>\s+\w+\s*\(\s*(?:\w+(?:->|\.))?(\w+)")
    lock_re = re.compile(r"\b(\w+)\s*\.\s*(?:try_)?lock\s*\(\s*\)")
    unlock_re = re.compile(r"\b(\w+)\s*\.\s*unlock\s*\(\s*\)")

    for lineno, line in enumerate(lines, start=1):
        # --- rule: reserved-tag-literal (path-exempt file checked by caller)
        for m in RESERVED_TAG.finditer(line):
            # A literal right of '&' is a bit-field extraction mask, not a
            # tag-space constant (e.g. `(raddr >> 48) & 0xFFFFu`).
            before = line[:m.start()].rstrip()
            if before.endswith("&") and not before.endswith("&&"):
                continue
            findings.append((rel, lineno, "reserved-tag-literal",
                             "reserved-tag-space literal outside "
                             "src/nmad/types.hpp (move it there)"))
        # --- rule: thread-owner
        if not thread_owner and THREAD_SPAWN.search(line):
            findings.append((rel, lineno, "thread-owner",
                             "only sched::Runtime owns threads (progress "
                             "this from its workers or interrupt thread)"))
        # --- rule: socket-syscall
        if not socket_helper and SOCKET_SYSCALL.search(line):
            findings.append((rel, lineno, "socket-syscall",
                             "raw socket syscall outside %s (use the "
                             "transport::sock helpers)" % SOCKET_HELPER))
        # --- rule: relaxed-done-store
        if RELAXED_DONE.search(line):
            findings.append((rel, lineno, "relaxed-done-store",
                             "completion store to a done-flag uses "
                             "memory_order_relaxed (must be release)"))

        opens = line.count("{")
        closes = line.count("}")

        # --- rule: use-after-complete (check before recording new stores)
        store_matches = list(COMPLETE_STORE.finditer(line))
        stored_names = {m.group(1) for m in store_matches}
        for name, d, store_line in completed:
            if name in stored_names:
                continue  # idempotent double-complete patterns
            if re.search(r"\b" + re.escape(name) + r"\s*(?:->|\.)", line):
                findings.append(
                    (rel, lineno, "use-after-complete",
                     "'%s' touched after its completion store on line %d "
                     "(the store must be the last touch)" %
                     (name, store_line)))
        # Reassignment/redeclaration ends tracking.
        completed = [
            (n, d, sl) for (n, d, sl) in completed
            if not re.search(r"\b" + re.escape(n) + r"\s*=[^=]", line)
        ]
        for m in store_matches:
            completed.append((m.group(1), depth, lineno))

        # --- rule: callback-under-lock
        fr = FOR_RANGE.search(line)
        if fr and fr.group(2) in cb_containers:
            local_cbs[fr.group(1)] = depth
        if held:
            for name in list(callbacks) + list(local_cbs):
                m = cb_call_re(name).search(line)
                if not m:
                    continue
                # Declarations/assignments of the same name are not calls.
                if re.search(r"(?:std::function|=)\s*$",
                             line[:m.start()].rstrip()):
                    continue
                findings.append(
                    (rel, lineno, "callback-under-lock",
                     "callback '%s' invoked while spinlock '%s' is held "
                     "(complete outside the lock)" % (name, held[-1][0])))

        # Lock tracking (spinlocks only; annotated guards + manual pairs).
        gm = guard_re.search(line)
        if gm and gm.group(1) in spinlocks:
            held.append((gm.group(1), "guard", depth))
        else:
            lm = lock_re.search(line)
            if lm and lm.group(1) in spinlocks:
                held.append((lm.group(1), "manual", depth))
        um = unlock_re.search(line)
        if um and um.group(1) in spinlocks:
            # Drop the most recent manual hold of that name.
            for i in range(len(held) - 1, -1, -1):
                if held[i][0] == um.group(1) and held[i][1] == "manual":
                    del held[i]
                    break

        depth += opens - closes
        if closes > 0:
            completed = [c for c in completed if c[1] <= depth]
            held = [h for h in held if h[1] == "manual" or h[2] <= depth]
            local_cbs = {k: v for k, v in local_cbs.items() if v <= depth}


# ---------------------------------------------------------------------------
# env-knob rule: runs on the full text, since the stripper blanks the very
# string literal that names the variable (offsets are preserved, so a match
# in the stripped text indexes the raw text too).
# ---------------------------------------------------------------------------

ENV_READ = re.compile(r"\benv::\w+\s*\(|\bgetenv\s*\(")
ENV_LITERAL = re.compile(r'\s*"(\w*)"')
ENV_DOC = os.path.join("docs", "architecture.md")
ENV_HEADING = "Environment knobs"
ENV_FRONT_DOOR = "src/util/env.cpp"
ENV_DOC_NAME = re.compile(r"`(PIOM_\w+)`")


def documented_env_vars(root):
    """Names in the first column of the env table under ENV_HEADING."""
    names = set()
    path = os.path.join(root, ENV_DOC)
    if not os.path.isfile(path):
        return names
    in_section = False
    with open(path, encoding="utf-8", errors="replace") as f:
        for line in f:
            if line.startswith("#"):
                in_section = ENV_HEADING in line
            elif in_section and line.startswith("|"):
                names.update(ENV_DOC_NAME.findall(line.split("|")[1]))
    return names


def scan_env(rel, raw, stripped, documented, findings):
    if rel.replace(os.sep, "/") == ENV_FRONT_DOOR:
        return
    for m in ENV_READ.finditer(stripped):
        lineno = stripped.count("\n", 0, m.start()) + 1
        lit = ENV_LITERAL.match(raw, m.end())
        if lit is None:
            findings.append((rel, lineno, "env-knob",
                             "environment read without a literal variable "
                             "name (name it so %s can list it)" % ENV_DOC))
        elif lit.group(1) not in documented:
            findings.append((rel, lineno, "env-knob",
                             "$%s is not in the %s table of %s (document "
                             "it, or make it a constant)" %
                             (lit.group(1), ENV_HEADING, ENV_DOC)))


# ---------------------------------------------------------------------------
# CI rule
# ---------------------------------------------------------------------------

CTEST_BARE_J = re.compile(r"\bctest\b[^#\n]*\s-j(?!\d)")


def scan_ci(rel, text, findings):
    for lineno, line in enumerate(text.split("\n"), start=1):
        if CTEST_BARE_J.search(line):
            findings.append((rel, lineno, "ctest-parallel-flag",
                             "bare 'ctest -j' swallows the next argument; "
                             "spell it 'ctest --parallel N'"))


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def find_files(root):
    cpp = []
    ci = []
    src = os.path.join(root, "src")
    gh = os.path.join(root, ".github")
    if os.path.isdir(src):
        for dirpath, _, names in os.walk(src):
            for name in sorted(names):
                if name.endswith(CPP_EXTS):
                    cpp.append(os.path.join(dirpath, name))
    if os.path.isdir(gh):
        for dirpath, _, names in os.walk(gh):
            for name in sorted(names):
                if name.endswith((".yml", ".yaml")):
                    ci.append(os.path.join(dirpath, name))
    return sorted(cpp), sorted(ci)


def run(root):
    cpp_files, ci_files = find_files(root)
    spinlocks, callbacks, cb_containers, stripped = \
        collect_global_names(cpp_files)
    documented = documented_env_vars(root)
    findings = []
    for path in cpp_files:
        rel = os.path.relpath(path, root)
        with open(path, encoding="utf-8", errors="replace") as f:
            scan_env(rel, f.read(), stripped[path], documented, findings)
        text = stripped[path]
        if rel.replace(os.sep, "/") == "src/nmad/types.hpp":
            # The one file allowed to spell reserved-tag literals: run the
            # other rules by temporarily blanking the literals.
            text = RESERVED_TAG.sub(lambda m: " " * len(m.group(0)), text)
        scan_cpp(rel, text, spinlocks, callbacks, cb_containers, findings)
    for path in ci_files:
        rel = os.path.relpath(path, root)
        with open(path, encoding="utf-8", errors="replace") as f:
            scan_ci(rel, f.read(), findings)
    findings.sort()
    return findings


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".",
                        help="repo root (holds src/ and .github/)")
    args = parser.parse_args(argv)
    if not os.path.isdir(args.root):
        print("piom_lint: no such directory: %s" % args.root,
              file=sys.stderr)
        return 2
    findings = run(args.root)
    for rel, lineno, rule, msg in findings:
        print("%s:%d: [%s] %s" % (rel, lineno, rule, msg))
    if findings:
        print("piom_lint: %d violation(s)" % len(findings), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
