#!/usr/bin/env python3
"""Partition-safety analyzer: prove the kernel is island-parallel-ready.

The island kernel runs conservatively-synchronized islands (host groups)
in parallel. That is only legal if daemon state is host-local and every
cross-host interaction goes through a message boundary (sim::Network /
sim::Rpc) that the kernel turns into a cross-island event. This tool is the
static half of that proof (the dynamic half is DetSan,
src/sim/include/condorg/sim/det.h):

  1. Inventory mutable global/static state in src/ — anything a second
     island worker could race on (rule: mutable-global).
  2. Build the state-ownership map from CONDORG_HOST_LOCAL() class
     annotations and det::HostLocal<> field wrappers.
  3. Flag container/optional state members of annotated daemon classes
     that are neither HostLocal-wrapped nor audited with a
     `det-local(<field>)` comment (rule: unannotated-daemon-field).
  4. Flag references to / calls on a daemon class annotated to a
     *different* partition (rules: cross-partition-ref,
     cross-partition-call) unless the line is a declared message boundary
     (sim::Network, sim::Rpc, sim::Address endpoint naming).
  5. Emit partition_report.json: the ownership inventory (partitions,
     HostLocal fields, audited mutable globals).

Which message types cross the island cut is not this tool's business: the
protocol spec (src/proto/protocols.json) is the one source of the cut,
condorg_proto.py binds it to the send sites and handler arms in the tree,
and condorg_profile_check compares it with the measured traffic. The
determinism lint (tools/lint/condorg_lint.py) is its own gate.

Suppressions use the lint's format (one allowlist grammar everywhere):
  inline:      // lint-allow(<rule>): <why>
  file-level:  tools/analyze/allowlist.txt   <relpath>:<rule>  # why
Partition rules additionally accept `det-local(<field>)` comments on
daemon members that are deliberately raw (see rule 3). A file-level entry
for a partition rule that no longer suppresses anything is itself an error
(rule: stale-suppression) — tidy.sh's burn-down policy, shared with the
lint and the proto analyzer.

Exit status: 0 = clean, 1 = violations, 2 = usage.
"""

import argparse
import importlib.util
import json
import os
import re
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
_LINT_PATH = os.path.join(_HERE, os.pardir, "lint", "condorg_lint.py")


def _load_lint():
    spec = importlib.util.spec_from_file_location("condorg_lint", _LINT_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


lint = _load_lint()

# The rules this analyzer owns (stale-suppression detection judges only
# these: tools/analyze/allowlist.txt is shared with condorg_proto.py).
PARTITION_RULES = frozenset({
    "mutable-global", "cross-partition-ref", "cross-partition-call",
    "unannotated-daemon-field",
})

ANNOTATION = re.compile(r'CONDORG_HOST_LOCAL\("(\w+)"\)')
CLASS_DECL = re.compile(r"\b(?:class|struct)\s+([A-Za-z_]\w*)\s*(?:final\s*)?"
                        r"(?::[^;{]*)?\{")
HOST_LOCAL_FIELD = re.compile(
    r"(?:mutable\s+)?(?:det::)?HostLocal<(.+)>\s*([A-Za-z_]\w*)\s*;")
# Mutable file-scope / function-local static state. `static const...` and
# static member *functions* don't count; neither do static_cast/_assert
# (no word boundary between "static" and "_").
STATIC_DECL = re.compile(r"^\s*(?:inline\s+)?(?:static|thread_local)\s+"
                         r"(?!const\b|constexpr\b|inline\s+const)")
# g_-convention globals: a *declaration* needs a type prefix (or extern);
# bare `g_x = ...` assignments are uses of an already-reported declaration.
GLOBAL_NAME = re.compile(r"^\s*(?:extern\s+)?\w[\w:<>,*&\s]*[\s*&]g_\w+"
                         r"\s*[;={]")
# Container-ish member state that must be HostLocal in an annotated daemon.
STATE_FIELD = re.compile(
    r"^\s*(?:mutable\s+)?(?:std::)?"
    r"(?:map|set|vector|deque|list|optional|unordered_map|unordered_set|"
    r"multimap|multiset|priority_queue|queue)\s*<.*>\s*"
    r"([A-Za-z_]\w*)\s*(?:;|\{\})")
DET_LOCAL = re.compile(r"det-local\(([A-Za-z_]\w*)\)")
FWD_DECL = re.compile(r"^\s*class\s+[A-Za-z_]\w*\s*;")
# A line that is a declared message boundary: endpoint naming or kernel
# messaging API. Calls THROUGH these are the legal island cut.
BOUNDARY = re.compile(r"sim::Address|sim::Network|sim::Rpc|"
                      r"rpc_(?:reply|refuse|unknown)|"
                      r"\.notify\s*\(|\.call\s*\(|register_service")


class Analysis:
    def __init__(self, root):
        self.root = root
        self.partitions = {}        # class name -> partition
        self.class_file = {}        # class name -> relpath of header
        self.file_partition = {}    # relpath -> partition (home partition)
        self.host_local_fields = []  # dicts: class/field/type/file/line
        self.violations = []        # lint.Violation
        self.mutable_globals = []   # dicts for the report
        self.used_allows = set()    # (relpath, rule) file-level suppressions


def collect_ownership(analysis):
    """Pass 1: class -> partition map and HostLocal field inventory, from
    the CONDORG_HOST_LOCAL annotations and det::HostLocal declarations in
    headers. A .cpp inherits the partition of the single annotated class
    declared in its paired header (gram/gatekeeper.cpp -> site, ...)."""
    for path in lint.iter_src_files(analysis.root):
        rel = os.path.relpath(path, analysis.root)
        lines = lint.read_lines(path)
        current_class = []
        for idx, raw in enumerate(lines):
            if lint.COMMENT_LINE.match(raw):
                continue
            line = lint.strip_noise(raw)
            m = CLASS_DECL.search(line)
            if m and not FWD_DECL.match(line):
                current_class.append(m.group(1))
            # the raw line: strip_noise blanks the partition literal
            m = ANNOTATION.search(raw)
            if m and current_class:
                analysis.partitions[current_class[-1]] = m.group(1)
                analysis.class_file[current_class[-1]] = rel
            m = HOST_LOCAL_FIELD.search(line)
            if m and current_class:
                analysis.host_local_fields.append({
                    "class": current_class[-1],
                    "field": m.group(2),
                    "type": m.group(1).strip(),
                    "file": rel,
                    "line": idx + 1,
                })
    # Home partitions: the annotated header, and its module .cpp twin.
    for cls, partition in analysis.partitions.items():
        header = analysis.class_file[cls]
        analysis.file_partition[header] = partition
        m = re.match(r"src/(\w+)/include/condorg/\w+/([\w.]+)\.h$",
                     header.replace(os.sep, "/"))
        if m:
            twin = os.path.join("src", m.group(1), m.group(2) + ".cpp")
            if os.path.isfile(os.path.join(analysis.root, twin)):
                analysis.file_partition[twin] = partition


def scan_file(analysis, path, allows):
    """Pass 2: partition rules over one file."""
    rel = os.path.relpath(path, analysis.root)
    lines = lint.read_lines(path)
    file_allows = allows.get(rel, set())
    home = analysis.file_partition.get(rel)

    def report(idx, rule, message):
        if rule in file_allows:
            analysis.used_allows.add((rel, rule))
            return
        if rule in lint.inline_allows(lines, idx):
            return
        analysis.violations.append(lint.Violation(rel, idx + 1, rule,
                                                  message))

    # det-local(<field>) audits apply file-wide (header declares, cpp uses).
    det_local = set()
    for raw in lines:
        det_local.update(DET_LOCAL.findall(raw))

    # Variables declared with a cross-partition daemon type, for the call
    # rule: `gram::Gatekeeper& gk = ...; gk.submit(...);`
    foreign_vars = {}

    in_annotated_class = home is not None and rel.endswith(".h")

    for idx, raw in enumerate(lines):
        if lint.COMMENT_LINE.match(raw):
            continue
        line = lint.strip_noise(raw)
        if not line.strip():
            continue

        # --- rule: mutable-global -------------------------------------
        is_static = STATIC_DECL.search(line)
        is_global_name = GLOBAL_NAME.match(line)
        if is_static or is_global_name:
            declares_variable = (";" in line or "=" in line) and (
                "(" not in line or
                ("=" in line and line.index("=") < line.index("(")))
            if declares_variable and "using" not in line.split()[:1]:
                allowed = ("mutable-global" in file_allows or
                           "mutable-global" in lint.inline_allows(lines, idx))
                analysis.mutable_globals.append({
                    "file": rel, "line": idx + 1,
                    "decl": line.strip().rstrip(";"),
                    "allowed": allowed,
                })
                report(idx, "mutable-global",
                       "mutable static/global state is shared across "
                       "islands; move it into a host-owned object or "
                       "lint-allow with the synchronization story")

        # --- rules: cross-partition-ref / cross-partition-call --------
        if home is not None:
            for cls, partition in analysis.partitions.items():
                if partition == home:
                    continue
                if not re.search(rf"\b{cls}\b", line):
                    continue
                if FWD_DECL.match(line) or line.lstrip().startswith("#"):
                    continue
                if BOUNDARY.search(line):
                    continue  # endpoint naming / messaging API: the cut
                report(idx, "cross-partition-ref",
                       f"'{cls}' is {partition}-partition state but this "
                       f"file is {home}-partition; talk through "
                       "sim::Network / sim::Rpc instead")
                m = re.search(rf"\b{cls}\b[&*\s]+([A-Za-z_]\w*)\s*[;=,()]",
                              line)
                if m:
                    foreign_vars[m.group(1)] = (cls, partition)
            for var, (cls, partition) in foreign_vars.items():
                if re.search(rf"\b{var}\s*(?:\.|->)\s*\w+\s*\(", line) \
                        and not BOUNDARY.search(line):
                    report(idx, "cross-partition-call",
                           f"direct call on {partition}-partition "
                           f"'{cls} {var}' from {home}-partition code; "
                           "only message boundaries may cross the cut")

        # --- rule: unannotated-daemon-field ---------------------------
        if in_annotated_class:
            m = STATE_FIELD.match(line)
            if m and "HostLocal" not in line:
                field = m.group(1)
                if field not in det_local:
                    report(idx, "unannotated-daemon-field",
                           f"container state '{field}' in a "
                           "CONDORG_HOST_LOCAL class must be "
                           "det::HostLocal<> or carry an audited "
                           f"det-local({field}) comment")


def build_report(analysis, diagnostics):
    partitions = {}
    for cls, partition in sorted(analysis.partitions.items()):
        partitions.setdefault(partition, []).append(cls)
    return {
        "partitions": partitions,
        "host_local_fields": sorted(
            analysis.host_local_fields,
            key=lambda f: (f["file"], f["line"])),
        "mutable_globals": sorted(
            analysis.mutable_globals,
            key=lambda g: (g["file"], g["line"])),
        "diagnostics": diagnostics,
    }


def self_test():
    """Analyze the bundled fixture tree: every seeded violation must be
    caught with the right rule id, and the clean fixture must stay clean."""
    fixture_root = os.path.join(_HERE, "testdata")
    analysis = Analysis(fixture_root)
    # The fixture ships its own src/ tree mirroring the real layout.
    collect_ownership(analysis)
    for path in lint.iter_src_files(fixture_root):
        scan_file(analysis, path, {})
    want = {
        "cross-partition-ref", "cross-partition-call",
        "mutable-global", "unannotated-daemon-field",
    }
    got = {v.rule for v in analysis.violations}
    ok = want <= got
    # The clean daemon must contribute no violations.
    clean_hits = [v for v in analysis.violations if "clean" in v.path]
    ok = ok and not clean_hits
    # Ownership map sanity: both fixture daemons were inventoried.
    ok = ok and analysis.partitions.get("FixtureSchedd") == "user"
    ok = ok and analysis.partitions.get("FixtureGatekeeper") == "site"
    ok = ok and any(f["field"] == "jobs_"
                    for f in analysis.host_local_fields)
    if not ok:
        print(f"condorg_partition self-test FAILED: rules hit "
              f"{sorted(got)}, wanted at least {sorted(want)}; "
              f"clean-fixture hits: {[str(v) for v in clean_hits]}")
        for v in sorted(analysis.violations,
                        key=lambda v: (v.path, v.line_no, v.rule)):
            print(f"  {v}")
        return 1
    print("condorg_partition self-test passed "
          f"({len(analysis.violations)} seeded violations caught)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".",
                        help="repository root (contains src/ and tools/)")
    parser.add_argument("--allowlist", default=None,
                        help="override allowlist path (default: "
                             "tools/analyze/allowlist.txt under root)")
    parser.add_argument("--report", default=None, metavar="PATH",
                        help="write partition_report.json here")
    parser.add_argument("--json", action="store_true",
                        help="print diagnostics as a JSON array")
    parser.add_argument("--self-test", action="store_true",
                        help="analyze the bundled fixture tree and check "
                             "every rule fires")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    root = os.path.abspath(args.root)
    if not os.path.isdir(os.path.join(root, "src")):
        print(f"condorg_partition: no src/ under {root}", file=sys.stderr)
        return 2
    allowlist_path = args.allowlist or os.path.join(
        root, "tools", "analyze", "allowlist.txt")
    allows = lint.load_allowlist(allowlist_path)

    analysis = Analysis(root)
    collect_ownership(analysis)
    for path in lint.iter_src_files(root):
        scan_file(analysis, path, allows)
    # tidy.sh's burn-down policy: a partition-rule entry in the (shared)
    # allowlist that suppressed nothing must be deleted. Proto-rule entries
    # in the same file are condorg_proto.py's to police.
    analysis.violations.extend(lint.stale_allow_violations(
        allowlist_path, root, analysis.used_allows, PARTITION_RULES))

    analysis.violations.sort(key=lambda v: (v.path, v.line_no, v.rule))

    report = build_report(analysis, len(analysis.violations))
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=False)
            fh.write("\n")

    if args.json:
        print(lint.diagnostics_json(analysis.violations))
        return 1 if analysis.violations else 0

    for v in analysis.violations:
        print(v)
    if analysis.violations:
        print(f"\ncondorg_partition: {len(analysis.violations)} "
              "violation(s)")
        return 1
    print(f"condorg_partition: clean — {len(analysis.partitions)} "
          f"annotated classes, {len(analysis.host_local_fields)} "
          "HostLocal fields")
    return 0


if __name__ == "__main__":
    sys.exit(main())
