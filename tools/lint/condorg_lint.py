#!/usr/bin/env python3
"""Determinism / correctness lint for the Condor-G reproduction.

Every run of the simulation must be exactly reproducible from its seed:
protocol timeouts, crash schedules, and brokering decisions are all events in
one deterministic queue (src/sim/simulation.h). This lint scans sim-visible
code (everything under src/) for constructs that historically break that
guarantee or the paper's exactly-once protocol:

  banned-rand            std::rand / srand / std::random_device — all
                         randomness must come from util::Rng streams derived
                         from the run seed.
  wall-clock             system_clock / steady_clock / time(...) /
                         gettimeofday / localtime — simulated daemons must use
                         sim::Simulation::now(), never the host clock.
  unordered-iteration    range-for over a variable declared as
                         std::unordered_map / std::unordered_set — iteration
                         order is implementation-defined and leaks
                         nondeterminism into event scheduling and protocol
                         message order. Iterate a std::map/std::set or a
                         sorted copy instead.
  unordered-trace-emit   the same range-for, but the loop body emits trace /
                         JSON output (tracer, emit, json). The schedule
                         explorer replays counterexamples by comparing
                         formatted output byte-for-byte, so emission order
                         from an unordered container is a correctness bug,
                         not a style one — this rule fires *in addition to*
                         unordered-iteration and needs its own allow.
  virtual-in-derived     `virtual` on a member function of a class that has a
                         base-clause — overrides must say `override` (the
                         compiler backstop is -Wsuggest-override); a derived
                         class introducing a brand-new virtual is rare enough
                         to deserve an explicit allow.
  unchecked-function-call invoking a declared std::function object in a file
                         that never null-checks it — moved-from or
                         default-constructed std::function invocation is UB
                         (std::bad_function_call at best).
  direct-io              std::cout / std::cerr / printf-family calls —
                         daemon and simulation code must log through
                         util::Logger (levelled, capturable, deterministic);
                         direct stdio belongs to benches, examples, and the
                         report tool (which is allowlisted).
  raw-threading          std::thread / std::mutex / std::atomic (and friends)
                         outside src/sim/ — the island kernel owns all
                         concurrency; daemon code must stay single-threaded
                         per island so determinism proofs stay local to the
                         kernel. Infrastructure that is genuinely shared
                         across island workers (the logger sink, metric
                         counters) is allowlisted with its synchronization
                         story.
  unbalanced-span        a tracer begin_span whose SpanId is discarded, or is
                         assigned to a variable that no end_span(<same
                         variable>) in the file ever closes; likewise a file
                         calling begin_job with no end_job. An unclosed span
                         corrupts every downstream trace consumer (the
                         critical-path walker sees a window that never ends).
                         Line-based: "no matching end on any path" is
                         approximated as "no matching end anywhere in the
                         file", which all legitimate sites satisfy.

Suppressions, in order of preference:
  1. Fix the code.
  2. Inline, for a single audited line:   // lint-allow(<rule>): <why>
     (on the offending line or the line directly above it)
  3. File-level, in tools/lint/allowlist.txt:   <relpath>:<rule>  # why
     for rules that are structurally fine in that one file.

A file-level entry that no longer suppresses anything is itself an error
(rule: stale-suppression) on full-tree runs — the same burn-down policy as
scripts/tidy.sh: stale entries must be deleted, or they silently swallow
the next genuine finding in that file.

Exit status: 0 = clean, 1 = unallowlisted violations, 2 = usage error.
"""

import argparse
import json
import os
import re
import sys

SRC_EXTENSIONS = (".h", ".hpp", ".cc", ".cpp")


def iter_src_files(root):
    """Every C++ source file under root/src (the analyzers' one file walk)."""
    for dirpath, _, names in os.walk(os.path.join(root, "src")):
        for name in sorted(names):
            if name.endswith(SRC_EXTENSIONS):
                yield os.path.join(dirpath, name)


def read_lines(path):
    with open(path, encoding="utf-8", errors="replace") as fh:
        return fh.read().splitlines()

# Every rule this engine can emit (stale-suppression detection judges only
# its own rules: the shared tools/analyze/allowlist.txt also carries
# partition- and proto-rule entries policed by those analyzers).
LINT_RULES = frozenset({
    "banned-rand", "wall-clock", "schedd-full-scan", "direct-io",
    "raw-threading", "unordered-iteration", "unordered-trace-emit",
    "virtual-in-derived", "unchecked-function-call", "unbalanced-span",
})

# ---------------------------------------------------------------------------
# Simple single-line rules: (rule, regex, message)
# ---------------------------------------------------------------------------
LINE_RULES = [
    (
        "banned-rand",
        re.compile(r"\b(std::rand\b|std::srand\b|(?<![:\w])s?rand\s*\(|"
                   r"random_device\b|mt19937\b|default_random_engine\b)"),
        "use util::Rng streams seeded from the run seed, not ambient RNGs",
    ),
    (
        "wall-clock",
        re.compile(r"\b(system_clock|steady_clock|high_resolution_clock|"
                   r"gettimeofday|clock_gettime|timespec_get|"
                   r"localtime|gmtime|mktime|strftime|"
                   r"(?<![:\w.>])time\s*\(\s*(?:nullptr|NULL|0|&)|"
                   r"(?<![:\w.>])clock\s*\(\s*\))"),
        "simulated code must read sim::Simulation::now(), not the host clock",
    ),
    (
        "schedd-full-scan",
        re.compile(r"\bfor\s*\(.*:\s*[\w.>()*-]*\bjobs\(\)"),
        "full job-table scan; use the Schedd's secondary indexes "
        "(idle_jobs / jobs_with_status / count) — audit, recovery, and "
        "report sites may lint-allow",
    ),
    (
        "direct-io",
        re.compile(r"(?<![:\w])(?:std::)?(?:cout|cerr)\b|"
                   r"(?<![:\w])(?:std::)?"
                   r"(?:printf|fprintf|fputs|fputc|putchar|puts)\s*\("),
        "log through util::Logger; direct stdio is for tools/benches only",
    ),
]

# Concurrency primitives are the island kernel's business only (src/sim/).
# Everything else runs single-threaded within its island; a stray mutex or
# thread elsewhere either hides a data race or silently serializes islands.
RAW_THREADING = re.compile(
    r"\bstd::(?:jthread|thread\b|mutex|recursive_mutex|timed_mutex|"
    r"shared_mutex|shared_timed_mutex|condition_variable|atomic\w*|"
    r"lock_guard|scoped_lock|unique_lock|shared_lock|call_once|once_flag|"
    r"promise\s*<|future\s*<|shared_future|async\s*\(|latch|barrier\s*<|"
    r"counting_semaphore|binary_semaphore)|"
    r"#\s*include\s*<(?:thread|mutex|shared_mutex|atomic|"
    r"condition_variable|future|semaphore|latch|barrier|stop_token)>")
# Directory prefix where RAW_THREADING is legal (the kernel itself).
THREADING_HOME = "src/sim/"

DECL_UNORDERED = re.compile(
    r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<")
# `name` of a variable/member declared on a line that mentions an unordered
# container: last identifier before `;`, `=`, `{`, or `(`.
DECL_NAME = re.compile(r"([A-Za-z_]\w*)\s*(?:;|=|\{|\()")
RANGE_FOR = re.compile(r"\bfor\s*\(.*?:\s*\*?\s*(?:this->)?([A-Za-z_][\w.>-]*)\s*\)")

CLASS_DERIVED = re.compile(
    r"\b(?:class|struct)\s+[A-Za-z_]\w*\s*(?:final\s*)?:\s*(?:virtual\s+)?"
    r"(?:public|protected|private)\b")
CLASS_ANY = re.compile(r"\b(?:class|struct)\s+[A-Za-z_]\w*")
VIRTUAL_DECL = re.compile(r"^\s*virtual\b")

DECL_FUNCTION_OBJ = re.compile(
    r"\bstd::function\s*<[^;]*>\s+([A-Za-z_]\w*)\s*[;={(]")
# Tracer span lifecycle. Only qualified calls (".begin_span" / "->begin_span")
# count, so the Tracer's own implementation is out of scope; the optional
# leading group captures the lvalue the SpanId is assigned to.
BEGIN_SPAN_CALL = re.compile(
    r"(?:([A-Za-z_][\w.\[\]>-]*)\s*=\s*)?[\w.\]()>-]*(?:\.|->)\s*"
    r"begin_span\s*\(")
BEGIN_JOB_CALL = re.compile(r"(?:\.|->)\s*begin_job\s*\(")
END_JOB_CALL = re.compile(r"(?:\.|->)\s*end_job\s*\(")
# Trace/JSON emission inside a loop body: the tracer, anything emit-like, or
# any json helper. Scanned against noise-stripped lines, so string literals
# cannot fake a hit.
EMIT_OUTPUT = re.compile(r"json|Json|JSON|[Tt]racer\b|\bemit\w*\s*\(")
ALLOW_INLINE = re.compile(r"lint-allow\(([\w,-]+)\)")

COMMENT_LINE = re.compile(r"^\s*(//|\*|/\*)")
STRING_LITERAL = re.compile(r'"(?:[^"\\]|\\.)*"')


class Violation:
    def __init__(self, path, line_no, rule, message):
        self.path = path
        self.line_no = line_no
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line_no}: [{self.rule}] {self.message}"


def strip_noise(line):
    """Drop string literals and trailing // comments before matching."""
    line = STRING_LITERAL.sub('""', line)
    cut = line.find("//")
    if cut != -1:
        line = line[:cut]
    return line


def inline_allows(lines, idx):
    """Rules allowed for line idx (0-based) via lint-allow on it or above."""
    allowed = set()
    for probe in (idx, idx - 1):
        if 0 <= probe < len(lines):
            m = ALLOW_INLINE.search(lines[probe])
            if m:
                allowed.update(r.strip() for r in m.group(1).split(","))
    return allowed


INCLUDE_PROJECT = re.compile(r'#include\s+"(condorg/[\w/.]+)"')


def _project_header_decls(root, lines, cache):
    """Names of unordered containers / std::function objects declared in the
    project headers a file includes — so a .cpp iterating a member declared
    in its own header is still caught."""
    unordered, functions = set(), set()
    for line in lines:
        m = INCLUDE_PROJECT.search(line)
        if not m:
            continue
        header = m.group(1)
        if header not in cache:
            names = (set(), set())
            for module in sorted(os.listdir(os.path.join(root, "src"))):
                candidate = os.path.join(root, "src", module, "include",
                                         header)
                if os.path.isfile(candidate):
                    names = _collect_decls(read_lines(candidate))
                    break
            cache[header] = names
        unordered.update(cache[header][0])
        functions.update(cache[header][1])
    return unordered, functions


def _collect_decls(lines):
    unordered_names, function_names = set(), set()
    for line in lines:
        if COMMENT_LINE.match(line):
            continue
        bare = strip_noise(line)
        if DECL_UNORDERED.search(bare):
            tail = bare[DECL_UNORDERED.search(bare).start():]
            m = DECL_NAME.search(_skip_template(tail))
            if m:
                unordered_names.add(m.group(1))
        m = DECL_FUNCTION_OBJ.search(bare)
        if m:
            function_names.add(m.group(1))
    return unordered_names, function_names


def lint_file(path, rel, file_allows, root, header_cache, used_allows=None):
    lines = read_lines(path)

    violations = []

    def report(idx, rule, message):
        if rule in file_allows:
            if used_allows is not None:
                used_allows.add((rel, rule))
            return
        if rule in inline_allows(lines, idx):
            return
        violations.append(Violation(rel, idx + 1, rule, message))

    # Pass 1: collect names of unordered containers and std::function objects
    # declared in this file (members and locals alike) or in the project
    # headers it includes.
    unordered_names, function_names = _collect_decls(lines)
    header_unordered, _header_functions = _project_header_decls(
        root, lines, header_cache)
    unordered_names |= header_unordered
    # Header-declared std::function members are deliberately NOT pulled into
    # the unchecked-call rule: the declaring file already owns that audit and
    # cross-file flow analysis from a line-based lint would be all noise.

    # A single null-check anywhere in the file is accepted as evidence the
    # author thought about emptiness; the rule targets files that invoke
    # std::function objects with no check at all.
    joined = "\n".join(strip_noise(l) for l in lines)
    checked_functions = set()
    for name in function_names:
        if re.search(
                rf"(\bif\s*\(\s*!?\s*(?:\w+(?:\.|->))?{name}\b)|"
                rf"(\b{name}\s*(?:\?|==|!=))|(assert\s*\(\s*{name}\b)|"
                rf"(!\s*{name}\b)",
                joined):
            checked_functions.add(name)

    # Pass 2: line rules + context-sensitive rules.
    in_derived_class = False
    brace_depth = 0
    class_depth_stack = []
    for idx, raw in enumerate(lines):
        if COMMENT_LINE.match(raw):
            continue
        line = strip_noise(raw)

        for rule, pattern, message in LINE_RULES:
            if pattern.search(line):
                report(idx, rule, message)

        if not rel.replace(os.sep, "/").startswith(THREADING_HOME) \
                and RAW_THREADING.search(line):
            report(idx, "raw-threading",
                   "concurrency primitive outside src/sim/ — the island "
                   "kernel owns threading; daemon code is single-threaded "
                   "per island")

        m = RANGE_FOR.search(line)
        if m and m.group(1).split(".")[0].split("->")[0] in unordered_names:
            report(idx, "unordered-iteration",
                   f"range-for over unordered container '{m.group(1)}'; "
                   "iteration order is nondeterministic")
            if _loop_body_emits(lines, idx):
                report(idx, "unordered-trace-emit",
                       f"loop over unordered container '{m.group(1)}' emits "
                       "trace/JSON output; replay compares that output "
                       "byte-for-byte — iterate a sorted view instead")

        if CLASS_DERIVED.search(line):
            class_depth_stack.append(brace_depth)
            in_derived_class = True
        brace_depth += line.count("{") - line.count("}")
        if class_depth_stack and brace_depth <= class_depth_stack[-1]:
            class_depth_stack.pop()
            in_derived_class = bool(class_depth_stack)

        if in_derived_class and VIRTUAL_DECL.search(line) \
                and "override" not in line and "final" not in line:
            report(idx, "virtual-in-derived",
                   "derived-class member uses 'virtual'; say 'override' "
                   "(or lint-allow a genuinely new virtual)")

        m = BEGIN_SPAN_CALL.search(line)
        if m:
            lvalue = m.group(1)
            if lvalue is None:
                if "return" not in line:
                    report(idx, "unbalanced-span",
                           "begin_span result discarded — nothing can ever "
                           "close this span; assign the SpanId and end_span "
                           "it on every path")
            else:
                span_var = lvalue.split(".")[-1].split("->")[-1]
                if not re.search(
                        rf"end_span\s*\(\s*[\w.\[\]>-]*\b"
                        rf"{re.escape(span_var)}\b", joined):
                    report(idx, "unbalanced-span",
                           f"begin_span id '{span_var}' has no matching "
                           "end_span in this file; an unclosed span breaks "
                           "the critical-path walk")
        if BEGIN_JOB_CALL.search(line) and not END_JOB_CALL.search(joined):
            report(idx, "unbalanced-span",
                   "begin_job with no end_job anywhere in this file; the "
                   "job root span can never close")

        for name in function_names:
            if name in checked_functions:
                continue
            # Direct invocation `name(...)` that is not the declaration.
            if re.search(rf"(?<![\w.>]){name}\s*\(", line) \
                    and not DECL_FUNCTION_OBJ.search(line) \
                    and "std::function" not in line:
                report(idx, "unchecked-function-call",
                       f"std::function '{name}' invoked but never "
                       "null-checked in this file")

    return violations


def _loop_body_emits(lines, idx, max_lines=30):
    """True when the range-for starting at line idx has trace/JSON emission
    in its body (brace-balanced, or the single next statement)."""
    depth = 0
    opened = False
    for probe in range(idx, min(idx + max_lines, len(lines))):
        line = strip_noise(lines[probe])
        if EMIT_OUTPUT.search(line):
            return True
        depth += line.count("{") - line.count("}")
        opened = opened or "{" in line
        if opened and depth <= 0:
            break  # closing brace of the loop reached
        if not opened and probe > idx:
            break  # braceless loop: body is the single next line
    return False


def _skip_template(text):
    """Return text after the matching '>' of the leading 'std::unordered_x<'."""
    depth = 0
    for i, ch in enumerate(text):
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth -= 1
            if depth == 0:
                return text[i + 1:]
    return text


def allowlist_entries(path):
    """Parse an allowlist into (relpath, rule, line_no) tuples — the line
    number anchors stale-suppression diagnostics on the entry itself."""
    entries = []
    if not os.path.exists(path):
        return entries
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if ":" not in line:
                print(f"allowlist: malformed entry (need path:rule): {line}",
                      file=sys.stderr)
                sys.exit(2)
            rel, rule = line.rsplit(":", 1)
            entries.append((rel.strip(), rule.strip(), line_no))
    return entries


def load_allowlist(path):
    """Map relpath -> set of allowed rules."""
    allows = {}
    for rel, rule, _ in allowlist_entries(path):
        allows.setdefault(rel, set()).add(rule)
    return allows


def stale_allow_violations(allowlist_path, root, used_allows, rule_set):
    """tidy.sh's burn-down policy, ported: on a full-tree run, a file-level
    entry (for a rule in rule_set) that suppressed nothing is debt that
    outlived its finding and must be deleted."""
    rel = os.path.relpath(allowlist_path, root)
    stale = []
    for entry_rel, rule, line_no in allowlist_entries(allowlist_path):
        if rule not in rule_set:
            continue
        if (entry_rel, rule) not in used_allows:
            stale.append(Violation(
                rel, line_no, "stale-suppression",
                f"allowlist entry {entry_rel}:{rule} matched no diagnostic "
                "— delete it (suppressions must burn down, not linger)"))
    return stale


def diagnostics_json(violations):
    """The one --json schema all three analyzers share: a JSON array sorted
    by (file, line, rule)."""
    ordered = sorted(violations, key=lambda v: (v.path, v.line_no, v.rule))
    return json.dumps([{
        "file": v.path, "line": v.line_no, "rule": v.rule,
        "message": v.message,
    } for v in ordered], indent=2)


def self_test(root):
    """Lint the bundled fixture and require one hit per rule — guards the
    rules themselves against regressions."""
    fixture = os.path.join(root, "tools", "lint", "testdata",
                           "violations.cpp")
    found = lint_file(fixture, os.path.relpath(fixture, root), set(), root,
                      {})
    got = sorted({v.rule for v in found})
    want = sorted(["banned-rand", "wall-clock", "unordered-iteration",
                   "unordered-trace-emit", "virtual-in-derived",
                   "unchecked-function-call", "direct-io",
                   "schedd-full-scan", "unbalanced-span", "raw-threading"])
    ok = got == want
    # The inline-allowed std::rand at the bottom must NOT be reported twice.
    rand_hits = sum(1 for v in found if v.rule == "banned-rand")
    ok = ok and rand_hits == 1
    # The fixture's one std::mutex member is the only threading hit; the
    # rule must not fire on comment mentions of the primitives.
    threading_hits = sum(1 for v in found if v.rule == "raw-threading")
    ok = ok and threading_hits == 1
    # The plain (no-emission) unordered loop must not trip the emit rule.
    emit_hits = [v for v in found if v.rule == "unordered-trace-emit"]
    ok = ok and len(emit_hits) == 1
    # Exactly the leaked + discarded spans and the end-less begin_job must
    # trip; the balanced begin/end pair in the fixture must NOT.
    span_hits = sum(1 for v in found if v.rule == "unbalanced-span")
    ok = ok and span_hits == 3
    if not ok:
        print(f"condorg_lint self-test FAILED: rules hit {got}, "
              f"wanted {want}; banned-rand hits {rand_hits} (want 1); "
              f"unordered-trace-emit hits {len(emit_hits)} (want 1); "
              f"unbalanced-span hits {span_hits} (want 3); "
              f"raw-threading hits {threading_hits} (want 1)")
        for v in found:
            print(f"  {v}")
        return 1
    print("condorg_lint self-test passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".",
                        help="repository root (contains src/ and tools/)")
    parser.add_argument("--allowlist", default=None,
                        help="override allowlist path "
                             "(default: tools/lint/allowlist.txt under root)")
    parser.add_argument("--json", action="store_true",
                        help="print diagnostics as a JSON array (stable "
                             "(file, line, rule) order, machine-readable)")
    parser.add_argument("--self-test", action="store_true",
                        help="lint the bundled fixture and check every rule "
                             "fires")
    parser.add_argument("paths", nargs="*",
                        help="restrict the scan to these files/dirs "
                             "(default: src/ and tools/)")
    args = parser.parse_args()

    if args.self_test:
        return self_test(os.path.abspath(args.root))

    root = os.path.abspath(args.root)
    allowlist_path = args.allowlist or os.path.join(root, "tools", "lint",
                                                    "allowlist.txt")
    allows = load_allowlist(allowlist_path)

    scan_roots = args.paths or [os.path.join(root, "src"),
                                os.path.join(root, "tools")]
    fixture_dir = os.path.join(root, "tools", "lint", "testdata")
    files = []
    for scan in scan_roots:
        scan = os.path.join(root, scan) if not os.path.isabs(scan) else scan
        if os.path.isfile(scan):
            files.append(scan)
            continue
        for dirpath, _, names in os.walk(scan):
            if os.path.abspath(dirpath).startswith(fixture_dir):
                continue  # the fixture violates every rule by design
            for name in sorted(names):
                if name.endswith(SRC_EXTENSIONS):
                    files.append(os.path.join(dirpath, name))
    files.sort()
    if not files:
        print("condorg_lint: no source files found", file=sys.stderr)
        return 2

    violations = []
    header_cache = {}
    used_allows = set()
    for path in files:
        rel = os.path.relpath(path, root)
        violations.extend(
            lint_file(path, rel, allows.get(rel, set()), root, header_cache,
                      used_allows))
    # Stale suppressions fail the gate too — but only on full-tree runs;
    # a restricted scan cannot tell "stale" from "not scanned this time".
    if not args.paths:
        violations.extend(stale_allow_violations(
            allowlist_path, root, used_allows, LINT_RULES))
    # Deterministic output order regardless of scan order: diffable across
    # runs and machines.
    violations.sort(key=lambda v: (v.path, v.line_no, v.rule))

    if args.json:
        print(diagnostics_json(violations))
        return 1 if violations else 0

    for v in violations:
        print(v)
    if violations:
        print(f"\ncondorg_lint: {len(violations)} violation(s) in "
              f"{len(files)} files — fix, lint-allow with a reason, or "
              f"allowlist in {os.path.relpath(allowlist_path, root)}")
        return 1
    print(f"condorg_lint: clean ({len(files)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
