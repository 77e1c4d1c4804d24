#!/usr/bin/env python3
"""Partition-safety analyzer: prove the kernel is island-parallel-ready.

ROADMAP item 2 wants to shard the calendar-queue kernel into
conservatively-synchronized islands (one per host group). That is only
legal if daemon state is host-local and every cross-host interaction goes
through a message boundary (sim::Network / sim::Rpc) that an island
scheduler can turn into a cross-island event. This tool is the static half
of that proof (the dynamic half is DetSan, src/sim/include/condorg/sim/det.h):

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
  5. Re-run the determinism lint's rule engine over src/ so wall-clock,
     ambient-RNG, and unordered-iteration-into-trace escapes fail this
     gate too (one rule engine: tools/lint/condorg_lint.py is imported,
     not reimplemented).
  6. Emit partition_report.json: the island-cut graph of legal cross-host
     edges (protocol -> from/to partition, with the message types and
     client/server call sites discovered in the tree as evidence). The
     report fails the run if any of GRAM/GASS/MDS/GSI has no discovered
     message boundary — a partition claim with no evidence is a bug.

Engines: when python bindings for libclang and a compile_commands.json are
available, an AST pass adds precise cross-TU call checking; the regex
engine always runs and is the binding gate (the CI container has no
libclang, so the fallback is the default path, not a degraded one).

Suppressions use the lint's format (one allowlist grammar everywhere):
  inline:      // lint-allow(<rule>): <why>
  file-level:  tools/analyze/allowlist.txt   <relpath>:<rule>  # why
Partition rules additionally accept `det-local(<field>)` comments on
daemon members that are deliberately raw (see rule 3). A file-level entry
for a partition rule that no longer suppresses anything is itself an error
(rule: stale-suppression) — tidy.sh's burn-down policy, shared with the
lint and the proto analyzer.

Exit status: 0 = clean, 1 = violations or missing coverage, 2 = usage.
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

# ---------------------------------------------------------------------------
# The island-cut model: every legal cross-host interaction in the paper's
# deployment, keyed by the message-type prefix each protocol module uses.
# The scan below must find real client call sites and server dispatch sites
# for every entry — the table is the claim, the tree is the evidence.
# ---------------------------------------------------------------------------
PROTOCOLS = {
    "GRAM": {"prefixes": ("gram", "jm"), "from": "user", "to": "site"},
    "GASS": {"prefixes": ("file",), "from": "site", "to": "user"},
    "MDS": {"prefixes": ("grip", "grrp"), "from": "user", "to": "central"},
    "GSI": {"prefixes": ("myproxy",), "from": "user", "to": "central"},
    "GLIDEIN": {"prefixes": ("glidein",), "from": "user", "to": "site"},
    "CONDOR": {"prefixes": ("startd", "shadow", "collector"),
               "from": "user", "to": "user"},
}
REQUIRED_PROTOCOLS = ("GRAM", "GASS", "MDS", "GSI")

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
MESSAGE_LITERAL = re.compile(r'"([a-z_]+)\.([a-z_.]+)"')
CLIENT_SITE = re.compile(r"(?:\.|->)(?:call|notify)\s*\(|rpc_notify\s*\(")
SERVER_SITE = re.compile(r"message\.type\s*==|\.type\s*==")
# A line that is a declared message boundary: endpoint naming or kernel
# messaging API. Calls THROUGH these are the legal island cut.
BOUNDARY = re.compile(r"sim::Address|sim::Network|sim::Rpc|rpc_reply|"
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
        self.edges = {}             # protocol -> edge dict
        self.used_allows = set()    # (relpath, rule) file-level suppressions


def iter_src_files(root):
    src = os.path.join(root, "src")
    for dirpath, _, names in os.walk(src):
        for name in sorted(names):
            if name.endswith(lint.SRC_EXTENSIONS):
                yield os.path.join(dirpath, name)


def read_lines(path):
    with open(path, encoding="utf-8", errors="replace") as fh:
        return fh.read().splitlines()


def collect_ownership(analysis):
    """Pass 1: class -> partition map and HostLocal field inventory, from
    the CONDORG_HOST_LOCAL annotations and det::HostLocal declarations in
    headers. A .cpp inherits the partition of the single annotated class
    declared in its paired header (gram/gatekeeper.cpp -> site, ...)."""
    for path in iter_src_files(analysis.root):
        rel = os.path.relpath(path, analysis.root)
        lines = read_lines(path)
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
    lines = read_lines(path)
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


def scan_edges(analysis):
    """Pass 3: harvest the island-cut evidence — message-type literals at
    client call sites and server dispatch sites, grouped by protocol."""
    for name, spec in PROTOCOLS.items():
        analysis.edges[name] = {
            "from": spec["from"], "to": spec["to"],
            "messages": set(), "clients": set(), "servers": set(),
            "client_partitions": set(),
        }
    prefix_to_protocol = {}
    for name, spec in PROTOCOLS.items():
        for prefix in spec["prefixes"]:
            prefix_to_protocol[prefix] = name
    for path in iter_src_files(analysis.root):
        rel = os.path.relpath(path, analysis.root)
        for raw in read_lines(path):
            if lint.COMMENT_LINE.match(raw):
                continue
            for m in MESSAGE_LITERAL.finditer(raw):
                protocol = prefix_to_protocol.get(m.group(1))
                if protocol is None:
                    continue
                edge = analysis.edges[protocol]
                message = f"{m.group(1)}.{m.group(2)}"
                bare = lint.strip_noise(raw)
                # strip_noise drops the literal itself; classify on the
                # raw line's call shape.
                if CLIENT_SITE.search(raw):
                    edge["messages"].add(message)
                    edge["clients"].add(rel)
                    home = analysis.file_partition.get(rel)
                    if home:
                        edge["client_partitions"].add(home)
                elif SERVER_SITE.search(bare) or "register_service" in bare:
                    edge["messages"].add(message)
                    edge["servers"].add(rel)


def build_report(analysis, diagnostics):
    edges = []
    for name in sorted(analysis.edges):
        edge = analysis.edges[name]
        edges.append({
            "protocol": name,
            "from": edge["from"],
            "to": edge["to"],
            "observed_client_partitions": sorted(edge["client_partitions"]),
            "messages": sorted(edge["messages"]),
            "client_files": sorted(edge["clients"]),
            "server_files": sorted(edge["servers"]),
        })
    partitions = {}
    for cls, partition in sorted(analysis.partitions.items()):
        partitions.setdefault(partition, []).append(cls)
    return {
        "engine": "regex",
        "partitions": partitions,
        "host_local_fields": sorted(
            analysis.host_local_fields,
            key=lambda f: (f["file"], f["line"])),
        "mutable_globals": sorted(
            analysis.mutable_globals,
            key=lambda g: (g["file"], g["line"])),
        "cross_host_edges": edges,
        "diagnostics": diagnostics,
    }


def check_coverage(analysis):
    """The required protocols must each have discovered messages AND both
    a client and a server site: an island cut with no evidence fails."""
    problems = []
    for name in REQUIRED_PROTOCOLS:
        edge = analysis.edges[name]
        if not edge["messages"]:
            problems.append(f"{name}: no message types discovered")
        if not edge["clients"]:
            problems.append(f"{name}: no client call sites discovered")
        if not edge["servers"]:
            problems.append(f"{name}: no server dispatch sites discovered")
    return problems


def run_lint_rules(analysis, root):
    """Pass 4: the determinism lint's own engine over src/, same rules and
    allowlist as the lint.determinism gate — subsumed here so one command
    gives the full static story."""
    allows = lint.load_allowlist(os.path.join(root, "tools", "lint",
                                              "allowlist.txt"))
    header_cache = {}
    for path in iter_src_files(root):
        rel = os.path.relpath(path, root)
        analysis.violations.extend(
            lint.lint_file(path, rel, allows.get(rel, set()), root,
                           header_cache))


def try_libclang_pass(analysis, root, build_dir):
    """Optional precision pass: with python-clang + compile_commands.json,
    verify cross-TU member calls against the partition map. Absent either
    (the CI container has neither), the regex engine stands alone."""
    try:
        import clang.cindex as cindex  # noqa: F401
    except ImportError:
        return "regex"
    db_path = os.path.join(build_dir, "compile_commands.json")
    if not os.path.isfile(db_path):
        return "regex"
    try:
        index = cindex.Index.create()
        with open(db_path, encoding="utf-8") as fh:
            commands = json.load(fh)
        for entry in commands:
            if "/src/" not in entry["file"].replace(os.sep, "/"):
                continue
            args = [a for a in entry["command"].split()[1:]
                    if a != entry["file"] and a not in ("-c", "-o")]
            tu = index.parse(entry["file"], args=args)
            _walk_calls(analysis, root, tu.cursor, cindex)
        return "libclang"
    except Exception as error:  # pragma: no cover - depends on local clang
        print(f"condorg_partition: libclang pass skipped ({error})",
              file=sys.stderr)
        return "regex"


def _walk_calls(analysis, root, cursor, cindex):  # pragma: no cover
    """AST walk: a CALL_EXPR whose callee's semantic parent class is
    annotated to a different partition than the caller's class."""
    from clang.cindex import CursorKind

    def class_partition(cur):
        while cur is not None and cur.kind != CursorKind.TRANSLATION_UNIT:
            if cur.kind in (CursorKind.CLASS_DECL, CursorKind.STRUCT_DECL):
                return analysis.partitions.get(cur.spelling)
            cur = cur.semantic_parent
        return None

    def visit(cur, enclosing):
        if cur.kind in (CursorKind.CXX_METHOD, CursorKind.CONSTRUCTOR,
                        CursorKind.DESTRUCTOR):
            enclosing = class_partition(cur)
        if cur.kind == CursorKind.CALL_EXPR and enclosing is not None:
            ref = cur.referenced
            if ref is not None:
                callee = class_partition(ref)
                if callee is not None and callee != enclosing:
                    loc = cur.location
                    rel = os.path.relpath(loc.file.name, root) \
                        if loc.file else "<unknown>"
                    analysis.violations.append(lint.Violation(
                        rel, loc.line, "cross-partition-call",
                        f"AST: {enclosing}-partition code calls "
                        f"{callee}-partition method "
                        f"'{ref.spelling}'"))
        for child in cur.get_children():
            visit(child, enclosing)

    visit(cursor, None)


def self_test(root):
    """Analyze the bundled fixture tree: every seeded violation must be
    caught with the right rule id, and the clean fixture must stay clean."""
    fixture_root = os.path.join(_HERE, "testdata")
    analysis = Analysis(fixture_root)
    # The fixture ships its own src/ tree mirroring the real layout.
    collect_ownership(analysis)
    for path in iter_src_files(fixture_root):
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
    parser.add_argument("--build-dir", default="build",
                        help="build dir holding compile_commands.json "
                             "(for the optional libclang pass)")
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
        return self_test(os.path.abspath(args.root))

    root = os.path.abspath(args.root)
    if not os.path.isdir(os.path.join(root, "src")):
        print(f"condorg_partition: no src/ under {root}", file=sys.stderr)
        return 2
    allowlist_path = args.allowlist or os.path.join(
        root, "tools", "analyze", "allowlist.txt")
    allows = lint.load_allowlist(allowlist_path)

    analysis = Analysis(root)
    collect_ownership(analysis)
    for path in iter_src_files(root):
        scan_file(analysis, path, allows)
    scan_edges(analysis)
    run_lint_rules(analysis, root)
    build_dir = args.build_dir if os.path.isabs(args.build_dir) \
        else os.path.join(root, args.build_dir)
    engine = try_libclang_pass(analysis, root, build_dir)
    # tidy.sh's burn-down policy: a partition-rule entry in the (shared)
    # allowlist that suppressed nothing must be deleted. Proto-rule entries
    # in the same file are condorg_proto.py's to police.
    analysis.violations.extend(lint.stale_allow_violations(
        allowlist_path, root, analysis.used_allows, PARTITION_RULES))

    analysis.violations.sort(key=lambda v: (v.path, v.line_no, v.rule))
    coverage_problems = check_coverage(analysis)

    report = build_report(analysis, len(analysis.violations))
    report["engine"] = engine
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=False)
            fh.write("\n")

    if args.json:
        print(lint.diagnostics_json(analysis.violations))
    else:
        for v in analysis.violations:
            print(v)

    for problem in coverage_problems:
        print(f"condorg_partition: island-cut coverage: {problem}",
              file=sys.stderr)
    if analysis.violations or coverage_problems:
        if not args.json:
            print(f"\ncondorg_partition: {len(analysis.violations)} "
                  f"violation(s), {len(coverage_problems)} coverage "
                  "problem(s)")
        return 1
    if not args.json:
        print(f"condorg_partition: clean — {len(analysis.partitions)} "
              f"annotated classes, {len(analysis.host_local_fields)} "
              f"HostLocal fields, "
              f"{sum(len(e['messages']) for e in analysis.edges.values())} "
              "cross-host message types")
    return 0


if __name__ == "__main__":
    sys.exit(main())
