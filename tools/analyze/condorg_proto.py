#!/usr/bin/env python3
"""Protocol-conformance analyzer: check the tree against the wire-protocol
spec in src/proto/protocols.json.

Condor-G's reliability story hangs on the GRAM two-phase commit and the
keepalive/lease protocols behaving exactly as specified under loss, crash,
and partition — yet the protocol is encoded as stringly-typed
`message.type == "jm.commit"` if-chains scattered across the daemons, so a
missing handler arm, a request path that forgets to reply, or a timer that
fails to re-arm compiles clean and surfaces only as a timeout the RPC layer
politely retries around. The spec is the one source of the message graph,
the island cut included (each message's `protocol` and `cut`); this tool
checks the code against it, and condorg_profile_check compares its cut
with the kernel profiler's measured cross-partition traffic
(spec cut == dynamic matrix).

Rules:

  spec-coverage          a spec message with no send site in a declared
                         sender daemon, a send site in a file no declared
                         sender owns, a missing handler arm in a declared
                         receiver daemon, or a call/notify kind that
                         contradicts the spec (request sent one-way, notify
                         sent as an awaited RPC).
  ghost-message          a typed send site or handler arm whose message type
                         has no spec entry at all — undocumented protocol
                         surface that no cut or crash-point gate can see.
  reply-on-all-paths     a request handler path that returns without
                         replying and without recording a deferred
                         continuation (a nested call/post whose callback
                         replies). Sequential approximation, same spirit as
                         the lint's unbalanced-span rule: a `return` is
                         flagged unless a reply token (sim::rpc_reply,
                         sim::rpc_refuse, sim::rpc_unknown, or a same-file
                         helper that transitively calls one of them)
                         precedes it in the handler text, the arm falls
                         through to a replying tail, or the return is a
                         `host_.crash_point(...)` guard (a simulated crash
                         owes nobody a reply).
  crash-point-coverage   a spec transition flagged durable with no declared
                         crash points; a declared crash point with no
                         `Host::crash_point("...")` site in src/; a code
                         site no spec entry claims; and any disagreement
                         between the code sites and the Explorer's
                         enumerated table (the model checker must provably
                         cover the spec, and must not advertise points that
                         no longer exist).
  timer-re-arm           a periodic handler named in the spec's timers table
                         that neither re-arms itself (a self-post in its own
                         body) nor is declared lease-bounded with a reason;
                         also a timers entry whose function no longer exists
                         (spec drift).

Suppressions use the lint's grammar (one allowlist everywhere):
  inline:      // lint-allow(<rule>): <why>
  file-level:  tools/analyze/allowlist.txt   <relpath>:<rule>  # why
A file-level entry that no longer suppresses anything is itself an error
(stale-suppression), same burn-down policy as scripts/tidy.sh.

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

PROTO_RULES = frozenset({
    "spec-coverage", "ghost-message", "reply-on-all-paths",
    "crash-point-coverage", "timer-re-arm",
})

SPEC_REL = os.path.join("src", "proto", "protocols.json")
EXPLORER_REL = os.path.join("src", "sim", "explorer.cpp")

MESSAGE_LITERAL = re.compile(r'"([a-z_]+\.[a-z_.]+)"')
SEND_CALL = re.compile(r"(?:\.|->)\s*(call|notify)\s*\(")
ARM = re.compile(r'\b(?:message|m)\s*\.\s*type\s*([=!]=)\s*"([a-z_]+\.'
                 r'[a-z_.]+)"')
CRASH_POINT = re.compile(r'crash_point\s*\(\s*"([\w.]+)"\s*\)')
REPLY_FREE = re.compile(r"\brpc_(?:reply|refuse|unknown)\s*\(")
RETURN_STMT = re.compile(r"\breturn\b")
FUNC_DEF = re.compile(r"\b([A-Za-z_]\w*)::(~?[A-Za-z_]\w*)\s*\(")
ENUM_TABLE_NAME = "kEnumeratedCrashPoints"
# Self-re-arm inside a timer body: a recursive mention of the method, or the
# shared-ptr periodic-lambda idiom `(*self)()`.
REARM_SELF_CALL = re.compile(r"\(\s*\*\s*\w+\s*\)\s*\(")


# ---------------------------------------------------------------------------
# Comment stripping that PRESERVES string literals (the extractor matches
# message-type literals, which lint.strip_noise would blank) plus a parallel
# "mask" view with string contents blanked (for brace/paren structure).
# ---------------------------------------------------------------------------
def split_code_lines(lines):
    code, mask = [], []
    in_block = False
    for raw in lines:
        c, m, in_block = _strip_one(raw, in_block)
        code.append(c)
        mask.append(m)
    return code, mask


def _strip_one(line, in_block):
    code_chars, mask_chars = [], []
    i, n = 0, len(line)
    in_str = False
    while i < n:
        ch = line[i]
        if in_block:
            if line.startswith("*/", i):
                in_block = False
                i += 2
            else:
                i += 1
            continue
        if in_str:
            code_chars.append(ch)
            mask_chars.append(" " if ch != '"' else '"')
            if ch == "\\" and i + 1 < n:
                code_chars.append(line[i + 1])
                mask_chars.append(" ")
                i += 2
                continue
            if ch == '"':
                in_str = False
            i += 1
            continue
        if line.startswith("//", i):
            break
        if line.startswith("/*", i):
            in_block = True
            i += 2
            continue
        if ch == '"':
            in_str = True
        code_chars.append(ch)
        mask_chars.append(ch)
        i += 1
    return "".join(code_chars), "".join(mask_chars), in_block


# ---------------------------------------------------------------------------
# Function inventory: name -> body extent, from the mask view (top-level
# `Class::method(...) {` definitions, brace-matched).
# ---------------------------------------------------------------------------
class Function:
    def __init__(self, cls, name, start, body_start, end):
        self.cls = cls
        self.name = name
        self.start = start          # 0-based line of the definition
        self.body_start = body_start
        self.end = end              # 0-based line of the closing brace

    @property
    def qualified(self):
        return f"{self.cls}::{self.name}"


def find_functions(mask):
    """Class::method(...) { ... } definitions, brace-matched on the mask
    view. Daemons live inside `namespace condorg::x { ... }` blocks, so
    matches are accepted at any depth; qualified CALLS are rejected because
    a `;` (or an unbalanced close paren) shows up before any body brace."""
    functions = []
    idx = 0
    while idx < len(mask):
        line = mask[idx]
        m = FUNC_DEF.search(line)
        if m:
            # Find the opening brace of the body (a `;` first means this is
            # a declaration or a call statement, not a definition).
            open_idx, open_line = None, None
            probe, pos = idx, m.end()
            paren = 1
            while probe < len(mask) and probe < idx + 20:
                text = mask[probe]
                j = pos
                while j < len(text):
                    ch = text[j]
                    if ch == "(":
                        paren += 1
                    elif ch == ")":
                        paren -= 1
                        if paren < 0:
                            probe = len(mask) + 1  # inside an expr: bail
                            break
                    elif paren == 0 and ch == ";":
                        probe = len(mask) + 1  # declaration: bail
                        break
                    elif paren == 0 and ch == "{":
                        open_idx, open_line = j, probe
                        break
                    j += 1
                if open_idx is not None or probe > len(mask):
                    break
                probe += 1
                pos = 0
            if open_idx is not None:
                body_depth = 0
                end_line = None
                for k in range(open_line, len(mask)):
                    text = mask[k]
                    start_pos = open_idx if k == open_line else 0
                    for ch in text[start_pos:]:
                        if ch == "{":
                            body_depth += 1
                        elif ch == "}":
                            body_depth -= 1
                            if body_depth == 0:
                                end_line = k
                                break
                    if end_line is not None:
                        break
                if end_line is not None:
                    functions.append(Function(m.group(1), m.group(2), idx,
                                              open_line, end_line))
                    idx = end_line + 1
                    continue
        idx += 1
    return functions


def replying_helpers(code, functions):
    """Names of functions whose body (transitively) answers a request."""
    bodies = {}
    for fn in functions:
        bodies[fn.name] = "\n".join(code[fn.start:fn.end + 1])
    replying = {name for name, body in bodies.items()
                if REPLY_FREE.search(body)}
    changed = True
    while changed:
        changed = False
        for name, body in bodies.items():
            if name in replying:
                continue
            for helper in list(replying):
                if re.search(rf"\b{re.escape(helper)}\s*\(", body):
                    replying.add(name)
                    changed = True
                    break
    return replying


# ---------------------------------------------------------------------------
# The analysis proper.
# ---------------------------------------------------------------------------
class Analysis:
    def __init__(self, root, spec, spec_rel):
        self.root = root
        self.spec = spec
        self.spec_rel = spec_rel
        self.violations = []
        self.used_allows = set()     # (relpath, rule) file-level suppressions
        self.sends = {}              # type -> [{file, line, kind}]
        self.arms = {}               # type -> [{file, line, op}]
        self.crash_sites = {}        # point -> [{file, line}]
        self.enumerated = []         # explorer table entries (ordered)
        self.enumerated_lines = {}   # point -> line in explorer.cpp
        self.timer_status = []       # per-timer report rows
        self.allows = {}
        self.file_lines = {}         # relpath -> raw lines (for inline allows)

    def message(self, mtype):
        for entry in self.spec.get("messages", ()):
            if entry["type"] == mtype:
                return entry
        return None

    def daemon_files(self, names):
        files = []
        for name in names:
            files.extend(self.spec["daemons"].get(name, {}).get("files", ()))
        return [f.replace("/", os.sep) for f in files]

    def report(self, rel, idx, rule, message):
        file_allows = self.allows.get(rel, set())
        if rule in file_allows:
            self.used_allows.add((rel, rule))
            return
        lines = self.file_lines.get(rel)
        if lines is not None and rule in lint.inline_allows(lines, idx):
            return
        self.violations.append(lint.Violation(rel, idx + 1, rule, message))

    def spec_line(self, needle):
        """1-based line of the first spec-file line containing needle —
        anchors spec-level diagnostics somewhere clickable."""
        lines = self.file_lines.get(self.spec_rel, ())
        for idx, line in enumerate(lines):
            if needle in line:
                return idx
        return 0


def load_spec(path):
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    for key in ("daemons", "messages", "timers"):
        if key not in spec:
            raise ValueError(f"spec is missing the '{key}' table")
    for entry in spec["messages"]:
        for key in ("type", "protocol", "cut", "senders", "receivers",
                    "kind", "reply", "timeout_owner", "durable",
                    "crash_points"):
            if key not in entry:
                raise ValueError(
                    f"spec message '{entry.get('type', '?')}' is missing "
                    f"'{key}'")
        if entry["kind"] not in ("request", "notify"):
            raise ValueError(
                f"spec message '{entry['type']}': kind must be "
                "request|notify")
        if entry["kind"] == "request" and \
                entry["reply"] != entry["type"] + ".reply":
            raise ValueError(
                f"spec message '{entry['type']}': the RPC layer synthesizes "
                "replies as <type>.reply; the spec must agree")
    return spec


def scan_tree(analysis):
    """Extract send sites, handler arms, and crash-point sites from src/."""
    for path in lint.iter_src_files(analysis.root):
        rel = os.path.relpath(path, analysis.root)
        raw = lint.read_lines(path)
        analysis.file_lines[rel] = raw
        code, mask = split_code_lines(raw)
        functions = find_functions(mask)

        # Send helpers: same-file functions that forward a (type, payload)
        # pair into .call/.notify — `notify_shadow("shadow.done", ...)` is a
        # send site even though the literal is far from the rpc call.
        send_helper_kind = {}
        for fn in functions:
            body = "\n".join(code[fn.start:fn.end + 1])
            m = SEND_CALL.search(body)
            if m:
                send_helper_kind[fn.name] = m.group(1)

        for idx, line in enumerate(code):
            m = SEND_CALL.search(line)
            if m:
                lit = MESSAGE_LITERAL.search(line, m.end())
                probe = idx
                while lit is None and probe < min(idx + 2, len(code) - 1):
                    probe += 1
                    lit = MESSAGE_LITERAL.search(code[probe])
                if lit is not None:
                    analysis.sends.setdefault(lit.group(1), []).append(
                        {"file": rel, "line": idx + 1, "kind": m.group(1)})
            for helper, kind in send_helper_kind.items():
                hm = re.search(rf"\b{re.escape(helper)}\s*\(\s*"
                               r'"([a-z_]+\.[a-z_.]+)"', line)
                if hm and not line.lstrip().startswith("void") \
                        and "::" not in line[:hm.start()]:
                    analysis.sends.setdefault(hm.group(1), []).append(
                        {"file": rel, "line": idx + 1, "kind": kind})
            for am in ARM.finditer(line):
                analysis.arms.setdefault(am.group(2), []).append(
                    {"file": rel, "line": idx + 1, "op": am.group(1)})
            for cm in CRASH_POINT.finditer(line):
                analysis.crash_sites.setdefault(cm.group(1), []).append(
                    {"file": rel, "line": idx + 1})

        if rel.replace(os.sep, "/") == EXPLORER_REL.replace(os.sep, "/"):
            _scan_enumerated_table(analysis, rel, code)


def _scan_enumerated_table(analysis, rel, code):
    in_table = False
    for idx, line in enumerate(code):
        if ENUM_TABLE_NAME in line and "[]" in line:
            in_table = True
        if in_table:
            for m in re.finditer(r'"([\w.]+)"', line):
                analysis.enumerated.append(m.group(1))
                analysis.enumerated_lines.setdefault(m.group(1), idx + 1)
            if "};" in line:
                break


def check_spec_coverage(analysis):
    """Rules spec-coverage and ghost-message."""
    spec_types = {e["type"] for e in analysis.spec["messages"]}

    for entry in analysis.spec["messages"]:
        mtype = entry["type"]
        sends = analysis.sends.get(mtype, [])
        sender_files = set(analysis.daemon_files(entry["senders"]))
        if entry["senders"]:
            if not sends:
                analysis.report(
                    analysis.spec_rel, analysis.spec_line(f'"{mtype}"'),
                    "spec-coverage",
                    f"'{mtype}': spec names sender(s) "
                    f"{entry['senders']} but no send site was found in src/")
            for site in sends:
                if site["file"].replace(os.sep, "/") not in {
                        f.replace(os.sep, "/") for f in sender_files}:
                    analysis.report(
                        site["file"], site["line"] - 1, "spec-coverage",
                        f"'{mtype}' sent from a file no declared sender "
                        f"daemon owns (spec senders: {entry['senders']})")
        elif sends:
            for site in sends:
                analysis.report(
                    site["file"], site["line"] - 1, "spec-coverage",
                    f"'{mtype}' is declared external (no in-tree sender) "
                    "but this file sends it — update the spec")

        want_kind = "call" if entry["kind"] == "request" else "notify"
        for site in sends:
            if site["kind"] != want_kind:
                analysis.report(
                    site["file"], site["line"] - 1, "spec-coverage",
                    f"'{mtype}' is a {entry['kind']} in the spec but this "
                    f"site uses .{site['kind']}( — a "
                    + ("request sent one-way can never be replied to"
                       if want_kind == "call"
                       else "notify awaited as an RPC will time out and "
                            "retry forever"))

        arms = analysis.arms.get(mtype, [])
        for receiver in entry["receivers"]:
            rfiles = {f.replace(os.sep, "/")
                      for f in analysis.daemon_files([receiver])}
            if not any(a["file"].replace(os.sep, "/") in rfiles
                       for a in arms):
                analysis.report(
                    analysis.spec_rel, analysis.spec_line(f'"{mtype}"'),
                    "spec-coverage",
                    f"'{mtype}': no handler arm found in declared receiver "
                    f"{receiver} ({sorted(rfiles)}) — the message would be "
                    "silently dropped there")

    for mtype, sites in sorted(analysis.sends.items()):
        if mtype in spec_types or mtype.endswith(".reply"):
            continue
        for site in sites:
            analysis.report(site["file"], site["line"] - 1, "ghost-message",
                            f"send site for '{mtype}' has no spec entry in "
                            f"{SPEC_REL}")
    for mtype, sites in sorted(analysis.arms.items()):
        if mtype in spec_types or mtype.endswith(".reply"):
            continue
        for site in sites:
            analysis.report(site["file"], site["line"] - 1, "ghost-message",
                            f"handler arm for '{mtype}' has no spec entry "
                            f"in {SPEC_REL}")


def check_reply_paths(analysis):
    """Rule reply-on-all-paths, per daemon with a declared dispatch."""
    request_types = {e["type"] for e in analysis.spec["messages"]
                     if e["kind"] == "request"}
    for daemon, info in sorted(analysis.spec["daemons"].items()):
        dispatch = info.get("dispatch")
        if not dispatch:
            continue
        handles_requests = any(
            e["kind"] == "request" and daemon in e["receivers"]
            for e in analysis.spec["messages"])
        if not handles_requests:
            continue
        for rel in analysis.daemon_files([daemon]):
            raw = analysis.file_lines.get(rel)
            if raw is None:
                continue
            code, mask = split_code_lines(raw)
            functions = find_functions(mask)
            replying = replying_helpers(code, functions)
            fn = next((f for f in functions if f.name == dispatch), None)
            if fn is None:
                continue
            _walk_dispatch(analysis, rel, code, mask, fn, replying,
                           request_types)


def _reply_token(replying):
    names = sorted(re.escape(n) for n in replying)
    if names:
        return re.compile(REPLY_FREE.pattern + r"|\b(?:" + "|".join(names)
                          + r")\s*\(")
    return REPLY_FREE


def _walk_dispatch(analysis, rel, code, mask, fn, replying, request_types):
    # The dispatcher's own name (on its definition line) and its class's
    # ctor/dtor are not reply evidence — a constructor that installs the
    # handler "calls" it without replying to anything.
    token = _reply_token(replying - {fn.name, fn.cls, "~" + fn.cls})
    # Depth at the start of each body line, relative to the function body.
    depth = 0
    start_depths = {}
    for idx in range(fn.body_start, fn.end + 1):
        start_depths[idx] = depth
        depth += mask[idx].count("{") - mask[idx].count("}")

    # Arm regions: [start, end] line ranges keyed by the arm's types.
    arms = []
    idx = fn.body_start
    while idx <= fn.end:
        line = code[idx]
        matches = [m for m in ARM.finditer(line) if m.group(1) == "=="]
        # `} else if (message.type == ...) {` chains start one deeper and
        # pop back with their leading closer.
        eff_depth = start_depths[idx] - (1 if line.lstrip().startswith("}")
                                         else 0)
        if matches and eff_depth == 1:
            types = [m.group(2) for m in matches]
            if "{" in mask[idx]:
                end = idx
                d = start_depths[idx]
                for k in range(idx, fn.end + 1):
                    d += mask[k].count("{") - mask[k].count("}")
                    if d <= 1:
                        end = k
                        break
            else:
                end = min(idx + 1, fn.end)  # braceless single statement
            arms.append({"start": idx, "end": end, "types": types})
            idx = end if end > idx else idx + 1
            continue
        idx += 1

    in_arm = [False] * (fn.end + 1)
    for arm in arms:
        for k in range(arm["start"], arm["end"] + 1):
            in_arm[k] = True

    # Outside-arm pass: a dispatch function that handles requests must not
    # silently drop a message before/between the arms. The running reply
    # state here also feeds the arm pass — the Shadow idiom acks every
    # request ONCE before dispatching, so an arm after a common-prefix
    # reply starts already satisfied. (Arm-local replies do not leak out.)
    prefix_replied = {}
    replied = False
    for k in range(fn.body_start, fn.end + 1):
        prefix_replied[k] = replied
        if in_arm[k]:
            continue
        line = code[k]
        if token.search(line):
            replied = True
        if RETURN_STMT.search(mask[k]) and not replied \
                and "crash_point" not in line:
            analysis.report(
                rel, k, "reply-on-all-paths",
                f"{fn.qualified} can return before dispatching/replying — "
                "a guard that drops a request silently hangs the caller "
                "(lint-allow with the story if the drop is intentional)")

    # Arm pass: every request arm must reply on its paths.
    for arm in arms:
        if not any(t in request_types for t in arm["types"]):
            continue
        replied = prefix_replied[arm["start"]]
        returned = False
        for k in range(arm["start"], arm["end"] + 1):
            line = code[k]
            if token.search(line):
                replied = True
            if RETURN_STMT.search(mask[k]):
                returned = True
                if not replied and "crash_point" not in line:
                    analysis.report(
                        rel, k, "reply-on-all-paths",
                        f"request handler arm for {arm['types']} returns "
                        "without replying or deferring a continuation — "
                        "the caller hangs until timeout")
        if not replied and not returned:
            # Fall-through arm: the obligation moves to the shared tail
            # (the if/else-if + single rpc_reply idiom).
            tail = "\n".join(code[arm["end"] + 1:fn.end + 1])
            if not token.search(tail):
                analysis.report(
                    rel, arm["start"], "reply-on-all-paths",
                    f"request handler arm for {arm['types']} neither "
                    "replies nor falls through to a replying tail")


def check_crash_points(analysis):
    """Rule crash-point-coverage: spec <-> code sites <-> Explorer table."""
    claimed = {}
    for entry in analysis.spec["messages"]:
        mtype = entry["type"]
        if entry["durable"] and not entry["crash_points"]:
            analysis.report(
                analysis.spec_rel, analysis.spec_line(f'"{mtype}"'),
                "crash-point-coverage",
                f"'{mtype}' is flagged durable but declares no crash "
                "points — the Explorer cannot cover its commit window")
        for point in entry["crash_points"]:
            claimed.setdefault(point, []).append(mtype)
            if point not in analysis.crash_sites:
                analysis.report(
                    analysis.spec_rel, analysis.spec_line(f'"{point}"'),
                    "crash-point-coverage",
                    f"'{mtype}' declares crash point '{point}' but no "
                    "Host::crash_point(\"...\") site exists in src/")

    explorer_rel = EXPLORER_REL
    enumerated = set(analysis.enumerated)
    for point, sites in sorted(analysis.crash_sites.items()):
        for site in sites:
            if point not in claimed:
                analysis.report(
                    site["file"], site["line"] - 1, "crash-point-coverage",
                    f"crash point '{point}' is not claimed by any spec "
                    f"entry's crash_points in {SPEC_REL}")
            if point not in enumerated:
                analysis.report(
                    site["file"], site["line"] - 1, "crash-point-coverage",
                    f"crash point '{point}' is missing from the Explorer's "
                    f"{ENUM_TABLE_NAME} table in {explorer_rel} — the model "
                    "checker cannot schedule it")
    for point in analysis.enumerated:
        if point not in analysis.crash_sites:
            analysis.report(
                explorer_rel, analysis.enumerated_lines.get(point, 1) - 1,
                "crash-point-coverage",
                f"Explorer table lists crash point '{point}' but no code "
                "site fires it — stale table entry")


def check_timers(analysis):
    """Rule timer-re-arm over the spec's timers table."""
    for timer in analysis.spec["timers"]:
        rel = timer["file"].replace("/", os.sep)
        raw = analysis.file_lines.get(rel)
        status = {"name": timer["name"], "function": timer["function"],
                  "file": timer["file"], "re_arms": False,
                  "lease_bounded": bool(timer.get("lease_bounded"))}
        analysis.timer_status.append(status)
        if raw is None:
            analysis.report(analysis.spec_rel,
                            analysis.spec_line(timer["name"]),
                            "timer-re-arm",
                            f"timer '{timer['name']}': file {timer['file']} "
                            "not found")
            continue
        code, mask = split_code_lines(raw)
        functions = find_functions(mask)
        cls, _, method = timer["function"].partition("::")
        fn = next((f for f in functions
                   if f.cls == cls and f.name == method), None)
        if fn is None:
            analysis.report(analysis.spec_rel,
                            analysis.spec_line(timer["name"]),
                            "timer-re-arm",
                            f"timer '{timer['name']}': function "
                            f"{timer['function']} not found in "
                            f"{timer['file']} — spec drift")
            continue
        body = "\n".join(code[fn.body_start:fn.end + 1])
        re_arms = bool(re.search(r"\bpost\s*\(", body) and
                       (re.search(rf"\b{re.escape(method)}\s*\(", body) or
                        REARM_SELF_CALL.search(body)))
        status["re_arms"] = re_arms
        if not re_arms and not timer.get("lease_bounded"):
            analysis.report(
                rel, fn.start, "timer-re-arm",
                f"periodic handler {timer['function']} (timer "
                f"'{timer['name']}') never re-arms itself and is not "
                "declared lease-bounded — it fires once and the protocol "
                "it drives silently stops")


def check_stale_allows(analysis, allowlist_path):
    """Same burn-down policy as scripts/tidy.sh: a file-level suppression
    that no longer suppresses anything must be deleted. Only proto rules
    are judged here — the same allowlist file also carries partition-rule
    entries, which condorg_partition.py polices."""
    analysis.violations.extend(lint.stale_allow_violations(
        allowlist_path, analysis.root, analysis.used_allows, PROTO_RULES))


def build_report(analysis):
    messages = []
    for entry in analysis.spec["messages"]:
        mtype = entry["type"]
        messages.append({
            "type": mtype,
            "protocol": entry["protocol"],
            "cut": entry["cut"],
            "kind": entry["kind"],
            "senders": entry["senders"],
            "receivers": entry["receivers"],
            "reply": entry["reply"],
            "durable": entry["durable"],
            "transition": entry.get("transition"),
            "crash_points": entry["crash_points"],
            "send_sites": sorted(analysis.sends.get(mtype, []),
                                 key=lambda s: (s["file"], s["line"])),
            "handler_sites": sorted(analysis.arms.get(mtype, []),
                                    key=lambda s: (s["file"], s["line"])),
        })
    return {
        "spec": SPEC_REL.replace(os.sep, "/"),
        "cut_types": sorted(e["type"] for e in analysis.spec["messages"]
                            if e["cut"]),
        "messages": messages,
        "crash_points": {
            "enumerated": list(analysis.enumerated),
            "sites": {point: sorted(sites,
                                    key=lambda s: (s["file"], s["line"]))
                      for point, sites
                      in sorted(analysis.crash_sites.items())},
        },
        "timers": analysis.timer_status,
        "diagnostics": len(analysis.violations),
    }


def analyze(root, spec, spec_path, allows):
    """Every rule over the tree under root, against spec."""
    analysis = Analysis(root, spec, os.path.relpath(spec_path, root))
    analysis.allows = allows
    analysis.file_lines[analysis.spec_rel] = lint.read_lines(spec_path)
    scan_tree(analysis)
    check_spec_coverage(analysis)
    check_reply_paths(analysis)
    check_crash_points(analysis)
    check_timers(analysis)
    return analysis


def run(root, spec_path, allowlist_path, report_path, as_json):
    try:
        spec = load_spec(spec_path)
    except (OSError, ValueError, json.JSONDecodeError) as error:
        print(f"condorg_proto: bad spec {spec_path}: {error}",
              file=sys.stderr)
        return 2
    analysis = analyze(root, spec, spec_path,
                       lint.load_allowlist(allowlist_path))
    check_stale_allows(analysis, allowlist_path)

    analysis.violations.sort(key=lambda v: (v.path, v.line_no, v.rule))
    report = build_report(analysis)
    if report_path:
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=False)
            fh.write("\n")

    if as_json:
        print(lint.diagnostics_json(analysis.violations))
        return 1 if analysis.violations else 0

    for v in analysis.violations:
        print(v)
    if analysis.violations:
        print(f"\ncondorg_proto: {len(analysis.violations)} violation(s) "
              f"against {analysis.spec_rel} — fix the code, fix the spec, or "
              "lint-allow with a reason")
        return 1
    n_msgs = len(spec["messages"])
    n_cut = len(report["cut_types"])
    print(f"condorg_proto: clean — {n_msgs} spec messages ({n_cut} on the "
          f"island cut), {len(analysis.crash_sites)} crash-point sites, "
          f"{len(spec['timers'])} timers checked")
    return 0


def self_test():
    """Analyze the bundled fixture tree: each of the five rules must fire
    on its seeded mutation with the right rule id, and the clean daemon
    must contribute zero noise."""
    fixture_root = os.path.join(_HERE, "testdata", "proto")
    spec_path = os.path.join(fixture_root, SPEC_REL)
    analysis = analyze(fixture_root, load_spec(spec_path), spec_path, {})
    analysis.violations.sort(key=lambda v: (v.path, v.line_no, v.rule))

    want = {"spec-coverage", "ghost-message", "reply-on-all-paths",
            "crash-point-coverage", "timer-re-arm"}
    got = {v.rule for v in analysis.violations}
    ok = want <= got
    clean_hits = [v for v in analysis.violations if "clean" in v.path]
    ok = ok and not clean_hits
    ok = ok and len(analysis.violations) >= 5
    # The fixture's clean request type must have been fully extracted.
    ok = ok and "fx.ok" in analysis.sends and "fx.ok" in analysis.arms
    ok = ok and "fixture.persist_ok" in analysis.crash_sites
    if not ok:
        print(f"condorg_proto self-test FAILED: rules hit {sorted(got)}, "
              f"wanted at least {sorted(want)}; clean-fixture hits: "
              f"{[str(v) for v in clean_hits]}")
        for v in analysis.violations:
            print(f"  {v}")
        return 1
    print("condorg_proto self-test passed "
          f"({len(analysis.violations)} seeded violations caught)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".",
                        help="repository root (contains src/ and tools/)")
    parser.add_argument("--spec", default=None,
                        help=f"protocol spec path (default: {SPEC_REL} "
                             "under root)")
    parser.add_argument("--allowlist", default=None,
                        help="override allowlist path (default: "
                             "tools/analyze/allowlist.txt under root)")
    parser.add_argument("--report", default=None, metavar="PATH",
                        help="write proto_report.json here")
    parser.add_argument("--json", action="store_true",
                        help="print diagnostics as a JSON array (stable "
                             "(file, line, rule) order, machine-readable)")
    parser.add_argument("--self-test", action="store_true",
                        help="analyze the bundled fixture tree and check "
                             "every rule fires")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    root = os.path.abspath(args.root)
    if not os.path.isdir(os.path.join(root, "src")):
        print(f"condorg_proto: no src/ under {root}", file=sys.stderr)
        return 2
    spec_path = args.spec or os.path.join(root, SPEC_REL)
    allowlist_path = args.allowlist or os.path.join(
        root, "tools", "analyze", "allowlist.txt")
    return run(root, spec_path, allowlist_path, args.report, args.json)


if __name__ == "__main__":
    sys.exit(main())
