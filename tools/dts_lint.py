#!/usr/bin/env python3
"""dts-lint: the project-invariant checker generic tools cannot replace.

Enforces the invariants the library's correctness story rests on — the
ones that otherwise live only in reviewers' heads:

  affine-funnel            all affine cost arithmetic goes through
                           affine_transfer_time() (src/model/); stray
                           `latency + bytes / bandwidth` expressions
                           elsewhere would break the bit-for-bit parity
                           the golden tests pin.
  channels-declared        every RegisterMachine / MachineRegistry::add
                           site names a MachineChannels{...} declaration
                           (solver registrations need no rule: the
                           compiler requires their SolverTraits).
  executor-one-home        execute_dynamic / execute_corrected each have
                           exactly one defining home, and pick_candidate
                           is called in src/ only from the indexed
                           selection (heuristics/candidate_index.cpp), so
                           candidate selection and its DAG gating can
                           never fork into a second implementation.
  heuristic-dispatch-one-home
                           a `case HeuristicId::` label appears only in
                           src/core/registry.cpp: what each paper
                           heuristic computes is decided in one switch,
                           which the whole-trace and the batch runtimes
                           share.
  no-unordered-containers  result-affecting code (src/core, src/exact,
                           src/heuristics, src/milp) never uses
                           std::unordered_{map, set}: iteration order is
                           implementation-defined and would make solve
                           results machine-dependent.
  no-nondeterministic-rng  no std::rand/srand/std::random_device or
                           time-seeded RNG in src/ or bench/ — every
                           random stream takes an explicit seed
                           (support/rng.hpp) so traces and the CI perf
                           baselines reproduce exactly.
  no-pointer-order         no pointer-ordered comparisons in
                           result-affecting code (address order varies
                           run to run).
  pragma-once              every header opens with #pragma once.
  no-using-namespace-header no `using namespace` in headers.
  no-iostream-library      no <iostream> in library code (src/ except the
                           src/cli/ front-end): a library must not talk to
                           std::cout/cerr or pay for their static init.
  no-naked-new             no naked new/delete in src/ — ownership goes
                           through containers and smart pointers.
  bench-row-one-home       under bench/, only bench/bench_common.cpp reads
                           --json= and opens a std::ofstream: every CI
                           bench parses its flags through bench::Options
                           and writes its rows through bench::write_rows,
                           the one row shape the baseline guard reads.
  number-text-one-home     src/trace/ and src/service/ format and parse
                           numbers only through the number-text codec
                           (src/support/text.*): no "%.17g" printf
                           formats, no stream precision(17), no
                           std::istringstream tokenizing — one exact,
                           locale-free home for round-trip number text.
  fan-out-one-home         src/ and bench/ start no threads of their own:
                           no std::thread, std::jthread, std::async or
                           parallel_for outside SolverPool
                           (src/core/pool.*) and the socket server's
                           connection threads (src/service/serve.*) —
                           work fans out through an Executor, so nested
                           fan-out shares one crew.
  hot-path-noalloc         functions marked `// dts-lint: hot-path` in
                           src/core/ and src/heuristics/ (the
                           candidate-scoring and -selection inner loops)
                           never allocate, build strings, declare
                           containers, grow buffers (.reserve/.resize/
                           .shrink_to_fit) or throw inline — error paths
                           funnel through cold [[noreturn]] helpers so
                           the makespan loop stays allocation-free.
  tolerance-one-home       src/ declares no epsilon constant and writes
                           no slack comparison of its own (`a < b - 1e-9`,
                           `std::abs(a - b) <= 1e-12`,
                           numeric_limits<T>::epsilon()): time and memory
                           comparisons go through the relative helpers of
                           src/support/tolerance.hpp, the one tolerance
                           policy. The LP's numerical tolerances in
                           src/milp/ are not time comparisons and are
                           exempt.
  trailing-whitespace, tabs, final-newline, crlf
                           mechanical hygiene on every scanned file.

Stdlib-only by design (runs anywhere python3 runs, no pip). Wired into
ctest twice: once over the tree (must exit 0) and once over the seeded
fixtures in tests/lint_fixtures/ via --self-test (every rule must still
catch its violation). Intentional exceptions are explicit: either an
inline `// dts-lint: allow(<rule>) <why>` on the flagged line or a
reviewed entry in tools/dts_lint_baseline.json.

Exit codes: 0 clean, 1 findings (or failed self-test), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

SOURCE_EXTENSIONS = {".cpp", ".hpp"}
SCAN_ROOTS = ("src", "bench", "examples", "tests", "tools")
EXCLUDED_PARTS = {"lint_fixtures", "build", "_googletest"}

# Directories whose code decides solve results: identical inputs must
# produce identical schedules on every platform, run after run.
RESULT_AFFECTING = ("src/core/", "src/exact/", "src/heuristics/",
                    "src/milp/")

ALLOW_RE = re.compile(r"dts-lint:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")
LINT_AS_RE = re.compile(r"//\s*lint-as:\s*(\S+)")


class Finding:
    def __init__(self, rule: str, path: str, line: int, message: str):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text: str, keep_strings: bool = False) -> str:
    """Blanks comments and string/char literals, preserving line structure.

    Rules must not fire on prose or on tokens inside messages; replacing
    them with spaces keeps every byte offset and line number stable. With
    `keep_strings`, literals survive verbatim and only comments blank
    (for rules about what a literal says, such as a format string).
    """
    out = []
    i, n = 0, len(text)
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
                out.append(c if keep_strings else " ")
                i += 1
            elif c == "'":
                state = "char"
                out.append(c if keep_strings else " ")
                i += 1
            else:
                out.append(c)
                i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        else:  # string or char literal
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append(text[i:i + 2] if keep_strings else "  ")
                i += 2
            elif c == quote:
                state = "code"
                out.append(c if keep_strings else " ")
                i += 1
            else:
                out.append(c if keep_strings or c == "\n" else " ")
                i += 1
    return "".join(out)


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def balanced_extent(text: str, start: int, open_ch: str, close_ch: str) -> str:
    """Text of the balanced open..close region beginning at/after start."""
    begin = text.find(open_ch, start)
    if begin < 0:
        return ""
    depth = 0
    for i in range(begin, len(text)):
        if text[i] == open_ch:
            depth += 1
        elif text[i] == close_ch:
            depth -= 1
            if depth == 0:
                return text[begin : i + 1]
    return text[begin:]


# --------------------------------------------------------------- rules


def check_affine_funnel(path: str, raw: str, code: str):
    """Affine cost arithmetic must funnel through affine_transfer_time()."""
    if path.startswith("src/model/"):
        return
    latency = re.compile(r"\b(\w*latency\w*|alpha)\b", re.IGNORECASE)
    bandwidth = re.compile(r"\b(\w*bandwidth\w*|beta)\b", re.IGNORECASE)
    # Statement granularity: everything between ; { } boundaries.
    for match in re.finditer(r"[^;{}]+", code):
        stmt = match.group(0)
        if "affine_transfer_time" in stmt:
            continue
        if not (latency.search(stmt) and bandwidth.search(stmt)):
            continue
        if "+" not in stmt or not re.search(r"[*/]", stmt):
            continue
        yield Finding(
            "affine-funnel", path, line_of(code, match.start()),
            "affine cost arithmetic (latency/bandwidth combined with +,*,/) "
            "outside src/model/ — call affine_transfer_time() instead so "
            "costing can never drift from the model layer")


# The files that *define* the registration helpers; the defining
# declarations would otherwise match their own usage patterns.
CHANNELS_RULE_DEFINING_FILES = {"src/model/machine.hpp"}


def check_channels_declared(path: str, raw: str, code: str):
    """Machine registration sites must declare their channel labels."""
    if path in CHANNELS_RULE_DEFINING_FILES:
        return
    sites = []  # (offset, extent)
    for m in re.finditer(r"\bMachineRegistry::global\(\)\s*\.\s*add\s*\(",
                         code):
        sites.append((m.start(),
                      balanced_extent(code, m.end() - 1, "(", ")")))
    if "register_builtin_machines" in code:
        for m in re.finditer(r"\bregistry\s*\.\s*add\s*\(", code):
            sites.append((m.start(),
                          balanced_extent(code, m.end() - 1, "(", ")")))
    for m in re.finditer(r"\bRegisterMachine\b(?!\s*;)", code):
        sites.append((m.start(), balanced_extent(code, m.end(), "{", "}")))
    for offset, extent in sites:
        if "MachineChannels" not in extent:
            yield Finding(
                "channels-declared", path, line_of(code, offset),
                "machine registration without an explicit MachineChannels "
                "declaration — declare it at the site (MachineRegistry::make "
                "checks it against the built machine)")


def check_unordered_containers(path: str, raw: str, code: str):
    if not path.startswith(RESULT_AFFECTING):
        return
    for m in re.finditer(r"\bstd::unordered_(map|set|multimap|multiset)\b",
                         code):
        yield Finding(
            "no-unordered-containers", path, line_of(code, m.start()),
            f"std::unordered_{m.group(1)} in result-affecting code — "
            "iteration order is implementation-defined; use std::map, "
            "std::set or a sorted vector")


RNG_PATTERNS = (
    (re.compile(r"\bstd::rand\b|\bsrand\s*\(|(?<![\w:.])rand\s*\(\s*\)"),
     "std::rand/srand"),
    (re.compile(r"\bstd::random_device\b|\brandom_device\b"),
     "std::random_device"),
    (re.compile(r"\b(mt19937(_64)?|default_random_engine|minstd_rand0?)\b"
                r"[^;{}]*\b(time\s*\(|clock\s*\(|now\s*\(\))"),
     "a time-seeded standard engine"),
)


def check_nondeterministic_rng(path: str, raw: str, code: str):
    if not (path.startswith("src/") or path.startswith("bench/")):
        return
    for pattern, what in RNG_PATTERNS:
        for m in pattern.finditer(code):
            yield Finding(
                "no-nondeterministic-rng", path, line_of(code, m.start()),
                f"{what} — every random stream takes an explicit seed "
                "(support/rng.hpp) so runs reproduce exactly")


POINTER_ORDER_PATTERNS = (
    re.compile(r"\bstd::less<[^>]*\*\s*>"),
    re.compile(r"\b(\w+)\.get\(\)\s*<\s*(\w+)\.get\(\)"),
    re.compile(r"\bstd::greater<[^>]*\*\s*>"),
)


def check_pointer_order(path: str, raw: str, code: str):
    if not path.startswith(RESULT_AFFECTING):
        return
    for pattern in POINTER_ORDER_PATTERNS:
        for m in pattern.finditer(code):
            yield Finding(
                "no-pointer-order", path, line_of(code, m.start()),
                "pointer-ordered comparison in result-affecting code — "
                "address order varies run to run; compare by id or value")


def check_pragma_once(path: str, raw: str, code: str):
    if not path.endswith(".hpp"):
        return
    for line in raw.splitlines():
        text = line.strip()
        if not text or text.startswith("//") or text.startswith("/*") \
                or text.startswith("*") or text.startswith("*/"):
            continue
        if text == "#pragma once":
            return
        break
    yield Finding("pragma-once", path, 1,
                  "header does not open with #pragma once")


def check_using_namespace_header(path: str, raw: str, code: str):
    if not path.endswith(".hpp"):
        return
    for m in re.finditer(r"\busing\s+namespace\b", code):
        yield Finding(
            "no-using-namespace-header", path, line_of(code, m.start()),
            "`using namespace` in a header leaks into every includer")


def check_iostream_library(path: str, raw: str, code: str):
    if not path.startswith("src/") or path.startswith("src/cli/"):
        return
    for m in re.finditer(r"#\s*include\s*<iostream>", code):
        yield Finding(
            "no-iostream-library", path, line_of(code, m.start()),
            "<iostream> in library code — report through return values or "
            "take an std::ostream&; only the src/cli/ front-end owns the "
            "process streams")


def check_naked_new(path: str, raw: str, code: str):
    if not path.startswith("src/"):
        return
    for m in re.finditer(r"(?<![\w.:>])new\s+[A-Za-z_(]", code):
        yield Finding(
            "no-naked-new", path, line_of(code, m.start()),
            "naked `new` — use std::make_unique/make_shared or a container")
    for m in re.finditer(r"(?<![\w.:>])delete(\[\])?\s", code):
        yield Finding(
            "no-naked-new", path, line_of(code, m.start()),
            "naked `delete` — ownership belongs to a smart pointer; "
            "`= delete` declarations are fine (and not matched)")


HOT_PATH_MARKER_RE = re.compile(r"//\s*dts-lint:\s*hot-path\b")

# Constructs that cost a heap round-trip, a string build, or an exception
# object in a loop that scores thousands of candidates per millisecond.
# push_back/pop_back/push_heap on pre-reserved buffers are fine (and
# load-bearing); growing or reshaping a buffer is not.
HOT_PATH_BANNED = (
    (re.compile(r"(?<![\w.:>])new\s+[A-Za-z_(]"), "a `new` expression"),
    (re.compile(r"\bstd::make_(unique|shared)\b"), "a heap allocation"),
    (re.compile(r"\bstd::(string|to_string|ostringstream|stringstream|"
                r"format)\b"),
     "string building"),
    (re.compile(r"\bstd::(vector|map|set|multimap|multiset|deque|list|"
                r"basic_string|unordered_\w+)\s*<"),
     "a container declaration"),
    (re.compile(r"\.\s*(reserve|resize|shrink_to_fit)\s*\("),
     "buffer growth"),
    (re.compile(r"\bthrow\s+std::"), "an inline throw"),
)


HOT_PATH_DIRS = ("src/core/", "src/heuristics/")


def check_hot_path_noalloc(path: str, raw: str, code: str):
    """`// dts-lint: hot-path` functions in src/core/ and src/heuristics/
    stay allocation-free."""
    if not path.startswith(HOT_PATH_DIRS):
        return
    for marker in HOT_PATH_MARKER_RE.finditer(raw):
        start = code.find("{", marker.end())
        if start < 0:
            continue
        depth, end = 0, len(code)
        for i in range(start, len(code)):
            if code[i] == "{":
                depth += 1
            elif code[i] == "}":
                depth -= 1
                if depth == 0:
                    end = i + 1
                    break
        block = code[start:end]
        for pattern, what in HOT_PATH_BANNED:
            for m in pattern.finditer(block):
                yield Finding(
                    "hot-path-noalloc", path,
                    line_of(code, start + m.start()),
                    f"{what} in a `dts-lint: hot-path` function — the "
                    "candidate-scoring loops must stay allocation-free; "
                    "hoist buffers into the scratch object and funnel "
                    "errors through a cold [[noreturn]] helper")


# The executors own the scheduling loops, and CandidateIndex owns candidate
# selection with its DAG gating (eligibility, predecessor floors). One home
# each: a second executor definition, or a loop elsewhere that calls the
# linear pick_candidate scan itself, would fork the selection semantics
# into two copies that only tests keep equal.
EXECUTOR_HOMES = {
    "execute_dynamic": "src/heuristics/dynamic.cpp",
    "execute_corrected": "src/heuristics/corrections.cpp",
}
SELECTION_HOME = "src/heuristics/candidate_index.cpp"


def check_executor_one_home(path: str, raw: str, code: str):
    """One defining home per executor; pick_candidate called only from
    the indexed selection."""
    for m in re.finditer(r"\bvoid\s+(execute_dynamic|execute_corrected)\s*\(",
                         code):
        name = m.group(1)
        params = balanced_extent(code, m.end() - 1, "(", ")")
        after = m.end() - 1 + len(params)
        if not code[after:].lstrip().startswith("{"):
            continue  # declaration, not a definition
        if path != EXECUTOR_HOMES[name]:
            yield Finding(
                "executor-one-home", path, line_of(code, m.start()),
                f"{name} defined outside its home ({EXECUTOR_HOMES[name]}) "
                "— each scheduling loop lives in exactly one place")
    if not path.startswith("src/") or path == SELECTION_HOME:
        return
    for m in re.finditer(r"\bpick_candidate\s*\(", code):
        if re.search(r"\bTaskId\s*$", code[max(0, m.start() - 64):m.start()]):
            continue  # its declaration or definition
        yield Finding(
            "executor-one-home", path, line_of(code, m.start()),
            "pick_candidate called outside " + SELECTION_HOME +
            " — select candidates through CandidateIndex, the one "
            "selection implementation (the linear scan is its fallback "
            "and audit reference)")


HEURISTIC_DISPATCH_HOME = "src/core/registry.cpp"


def check_heuristic_dispatch_one_home(path: str, raw: str, code: str):
    """HeuristicId switches live in core/registry.cpp only."""
    if not path.startswith("src/") or path == HEURISTIC_DISPATCH_HOME:
        return
    for m in re.finditer(r"\bcase\s+HeuristicId\s*::", code):
        yield Finding(
            "heuristic-dispatch-one-home", path, line_of(code, m.start()),
            "`case HeuristicId::` outside " + HEURISTIC_DISPATCH_HOME +
            " — dispatch on a paper heuristic through run_heuristic_on, "
            "the one home of what each heuristic computes")


BENCH_ROW_HOME = "bench/bench_common.cpp"


def check_bench_row_one_home(path: str, raw: str, code: str):
    """A CI bench's flags and JSON rows go through bench_common."""
    if not path.startswith("bench/") or path == BENCH_ROW_HOME:
        return
    literals = strip_comments_and_strings(raw, keep_strings=True)
    found = [(m.start(), "a --json= flag parser", literals)
             for m in re.finditer(r'"--json=', literals)]
    found += [(m.start(), "a std::ofstream", code)
              for m in re.finditer(r"\bstd::ofstream\b", code)]
    for offset, what, text in sorted(found):
        yield Finding(
            "bench-row-one-home", path, line_of(text, offset),
            f"{what} outside {BENCH_ROW_HOME} — take flags from "
            "bench::Options and write rows with bench::write_rows, the one "
            "home of a CI bench's output")


NUMBER_TEXT_DIRS = ("src/trace/", "src/service/")
NUMBER_TEXT_PATTERNS = (
    # (pattern, what, scanned text: literals kept or blanked)
    (re.compile(r"%\.17g"), 'a printf "%.17g" format', True),
    (re.compile(r"\b(?:set)?precision\s*\(\s*17\s*\)"),
     "stream precision(17)", False),
    (re.compile(r"\bstd::istringstream\b"), "std::istringstream", False),
)


def check_number_text_one_home(path: str, raw: str, code: str):
    """Round-trip number text in trace/service code goes through the codec."""
    if not path.startswith(NUMBER_TEXT_DIRS):
        return
    literals = strip_comments_and_strings(raw, keep_strings=True)
    for pattern, what, in_literals in NUMBER_TEXT_PATTERNS:
        text = literals if in_literals else code
        for m in pattern.finditer(text):
            yield Finding(
                "number-text-one-home", path, line_of(text, m.start()),
                f"{what} — format and parse numbers through the "
                "number-text codec (src/support/text.hpp: append_double, "
                "parse_double, split_fields), the one exact, locale-free "
                "home for round-trip number text")


FAN_OUT_HOMES = ("src/core/pool.hpp", "src/core/pool.cpp",
                 "src/service/serve.hpp", "src/service/serve.cpp")
FAN_OUT_RE = re.compile(r"\bstd::(?:thread|jthread|async)\b|\bparallel_for\b")


def check_fan_out_one_home(path: str, raw: str, code: str):
    """Library and bench threads are started by SolverPool only."""
    if not path.startswith(("src/", "bench/")) or path in FAN_OUT_HOMES:
        return
    for m in FAN_OUT_RE.finditer(code):
        yield Finding(
            "fan-out-one-home", path, line_of(code, m.start()),
            f"`{m.group(0)}` outside src/core/pool — fan work out through "
            "an Executor (SolverPool::for_each; bench::pool() in benches), "
            "the one home of the library's worker threads")


TOLERANCE_HOME = "src/support/tolerance.hpp"
TOLERANCE_EXEMPT_DIRS = ("src/milp/",)
# A small literal in exponent form (1e-9, 2.5E-12): the shape of a slack.
SMALL_LITERAL = r"\d*\.?\d+[eE]-\d+"
TOLERANCE_PATTERNS = (
    (re.compile(r"\bnumeric_limits\s*<[^>]*>\s*::\s*epsilon\b"),
     "numeric_limits<T>::epsilon()"),
    (re.compile(r"\b\w*(?:eps|epsilon|tol|tolerance|slack)\w*\s*[={]\s*"
                + SMALL_LITERAL, re.IGNORECASE),
     "an epsilon constant"),
    (re.compile(r"(?:<|>)=?[^;{}<>]*?[-+]\s*" + SMALL_LITERAL),
     "a hand-written slack comparison"),
    (re.compile(r"[-+]\s*" + SMALL_LITERAL + r"[^;{}<>]*?(?:<|>)=?"),
     "a hand-written slack comparison"),
    (re.compile(r"\babs\s*\([^;{}]*\)\s*(?:<|>)=?\s*" + SMALL_LITERAL),
     "a hand-written slack comparison"),
)


def check_tolerance_one_home(path: str, raw: str, code: str):
    """Time and memory comparisons use the one relative tolerance policy."""
    if not path.startswith("src/") or path == TOLERANCE_HOME \
            or path.startswith(TOLERANCE_EXEMPT_DIRS):
        return
    seen = set()
    for pattern, what in TOLERANCE_PATTERNS:
        for m in pattern.finditer(code):
            line = line_of(code, m.start())
            if line in seen:
                continue
            seen.add(line)
            yield Finding(
                "tolerance-one-home", path, line,
                f"{what} outside {TOLERANCE_HOME} — compare through "
                "definitely_less / approx_leq / approx_equal, the one "
                "relative tolerance policy (an absolute slack makes a "
                "schedule's feasibility depend on the unit of time)")


def check_whitespace(path: str, raw: str, code: str):
    lines = raw.split("\n")
    for idx, line in enumerate(lines, start=1):
        if line.endswith("\r"):
            yield Finding("crlf", path, idx,
                          "CRLF line ending — the tree is LF-only")
            line = line[:-1]
        if line != line.rstrip():
            yield Finding("trailing-whitespace", path, idx,
                          "trailing whitespace")
        if "\t" in line:
            yield Finding("tabs", path, idx,
                          "tab character — indentation is spaces")
    if raw and not raw.endswith("\n"):
        yield Finding("final-newline", path, len(lines),
                      "file does not end with a newline")


RULES = {
    "affine-funnel": check_affine_funnel,
    "channels-declared": check_channels_declared,
    "no-unordered-containers": check_unordered_containers,
    "no-nondeterministic-rng": check_nondeterministic_rng,
    "no-pointer-order": check_pointer_order,
    "pragma-once": check_pragma_once,
    "no-using-namespace-header": check_using_namespace_header,
    "no-iostream-library": check_iostream_library,
    "no-naked-new": check_naked_new,
    "hot-path-noalloc": check_hot_path_noalloc,
    "executor-one-home": check_executor_one_home,
    "heuristic-dispatch-one-home": check_heuristic_dispatch_one_home,
    "bench-row-one-home": check_bench_row_one_home,
    "number-text-one-home": check_number_text_one_home,
    "fan-out-one-home": check_fan_out_one_home,
    "tolerance-one-home": check_tolerance_one_home,
    "trailing-whitespace": check_whitespace,  # also emits tabs/crlf/newline
}

# Rules emitted by check_whitespace beyond its registry key.
WHITESPACE_RULES = {"trailing-whitespace", "tabs", "final-newline", "crlf"}
ALL_RULE_IDS = sorted(set(RULES) | WHITESPACE_RULES)


def lint_file(path: str, raw: str):
    """All findings for one file, `path` repo-relative with / separators."""
    code = strip_comments_and_strings(raw)
    allowed = {}  # line -> set of allowed rules
    for idx, line in enumerate(raw.split("\n"), start=1):
        m = ALLOW_RE.search(line)
        if m:
            allowed[idx] = {r.strip() for r in m.group(1).split(",")}
    findings = []
    seen_checks = set()
    for check in RULES.values():
        if check in seen_checks:
            continue
        seen_checks.add(check)
        for finding in check(path, raw, code) or ():
            if finding.rule in allowed.get(finding.line, ()):
                continue
            findings.append(finding)
    return findings


def iter_tree(root: Path):
    for scan_root in SCAN_ROOTS:
        base = root / scan_root
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in SOURCE_EXTENSIONS:
                continue
            if EXCLUDED_PARTS.intersection(path.parts):
                continue
            yield path


def load_baseline(root: Path, enabled: bool):
    baseline_path = root / "tools" / "dts_lint_baseline.json"
    if not enabled or not baseline_path.is_file():
        return []
    try:
        data = json.loads(baseline_path.read_text())
    except json.JSONDecodeError as err:
        print(f"dts-lint: malformed baseline {baseline_path}: {err}",
              file=sys.stderr)
        sys.exit(2)
    entries = data.get("suppressions", [])
    for entry in entries:
        for field in ("rule", "file", "reason"):
            if field not in entry:
                print(f"dts-lint: baseline entry missing '{field}': {entry}",
                      file=sys.stderr)
                sys.exit(2)
        if entry["rule"] not in ALL_RULE_IDS:
            print(f"dts-lint: baseline names unknown rule '{entry['rule']}'",
                  file=sys.stderr)
            sys.exit(2)
        entry["_used"] = False
    return entries


def apply_baseline(findings, baseline):
    kept = []
    for finding in findings:
        suppressed = False
        for entry in baseline:
            if entry["rule"] != finding.rule or entry["file"] != finding.path:
                continue
            if entry.get("contains") and entry["contains"] \
                    not in finding.message:
                continue
            entry["_used"] = True
            suppressed = True
            break
        if not suppressed:
            kept.append(finding)
    return kept


def run_tree(root: Path, use_baseline: bool) -> int:
    findings = []
    for path in iter_tree(root):
        rel = path.relative_to(root).as_posix()
        findings.extend(lint_file(rel, path.read_bytes().decode("utf-8")))
    baseline = load_baseline(root, use_baseline)
    findings = apply_baseline(findings, baseline)
    stale = [e for e in baseline if not e["_used"]]
    for finding in findings:
        print(finding)
    for entry in stale:
        print(f"dts-lint: stale baseline entry suppresses nothing: "
              f"{entry['rule']} in {entry['file']} ({entry['reason']}) — "
              "remove it", file=sys.stderr)
    if findings or stale:
        print(f"dts-lint: {len(findings)} finding(s), "
              f"{len(stale)} stale baseline entr(y/ies)", file=sys.stderr)
        return 1
    return 0


def run_self_test(root: Path) -> int:
    """Fixture check: every rule still passes clean code and catches its
    seeded violation. Fixtures are named <rule>_{ok,bad}_*.{hpp,cpp} and
    may carry a `// lint-as: <path>` directive mapping them into the
    directory scope their rule watches."""
    fixture_dir = root / "tests" / "lint_fixtures"
    if not fixture_dir.is_dir():
        print(f"dts-lint: no fixture directory at {fixture_dir}",
              file=sys.stderr)
        return 1
    failures = 0
    count = 0
    rules_covered = set()
    for path in sorted(fixture_dir.iterdir()):
        if path.suffix not in SOURCE_EXTENSIONS:
            continue
        name = path.name
        m = re.match(r"([a-z-]+)_(ok|bad)_", name)
        if not m or m.group(1) not in ALL_RULE_IDS:
            print(f"FAIL {name}: fixture name must be "
                  "<rule>_<ok|bad>_*.hpp/.cpp with a known rule id")
            failures += 1
            continue
        rule, kind = m.group(1), m.group(2)
        raw = path.read_bytes().decode("utf-8")
        lint_path = name
        directive = LINT_AS_RE.search(raw)
        if directive:
            lint_path = directive.group(1)
        found = [f for f in lint_file(lint_path, raw) if f.rule == rule]
        count += 1
        rules_covered.add(rule)
        if kind == "ok" and found:
            print(f"FAIL {name}: expected clean, got: {found[0]}")
            failures += 1
        elif kind == "bad" and not found:
            print(f"FAIL {name}: expected a '{rule}' finding, got none")
            failures += 1
    missing = [r for r in ALL_RULE_IDS if r not in rules_covered]
    if missing:
        print(f"FAIL: rules with no fixture coverage: {', '.join(missing)}")
        failures += 1
    if failures:
        print(f"dts-lint self-test: {failures} failure(s) over "
              f"{count} fixtures", file=sys.stderr)
        return 1
    print(f"dts-lint self-test: {count} fixtures over "
          f"{len(rules_covered)} rules, all behaving")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="repository root (default: the checkout "
                             "containing this script)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the fixture suite in tests/lint_fixtures/")
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore tools/dts_lint_baseline.json")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule ids and exit")
    args = parser.parse_args()
    if args.list_rules:
        for rule in ALL_RULE_IDS:
            print(rule)
        return 0
    if args.self_test:
        return run_self_test(args.root)
    return run_tree(args.root, use_baseline=not args.no_baseline)


if __name__ == "__main__":
    sys.exit(main())
