#!/usr/bin/env python3
"""Compare two trees of BENCH_*.json telemetry files.

The bench binaries (see bench/bench_report.h) each write a machine-readable
BENCH_<id>.json next to themselves. This tool diffs a baseline tree (e.g.
bench/baselines/, committed) against a freshly produced tree (e.g.
build/bench/) and flags any benchmark whose real time regressed by more than
--threshold (default 10%).

Reports may also carry a "latency_attribution" object (bench_phase_profile.h):
per-phase p99 time-to-ACTIVE from a traced campaign, plus the attributed
share. Those are gated too: a per-phase p99 that grows past the threshold
(and by more than one simulated second, so near-zero phases don't flap) is a
regression, and so is an attributed_share that *drops* by more than 0.02 —
losing attribution means daemons stopped stamping the records the
critical-path walker needs.

Exit status: 0 when no benchmark regressed past the threshold, 1 otherwise.
Benchmarks present on only one side are reported but are not failures — the
suite grows over time and baselines may lag a PR by design.

Usage:
    tools/bench_compare.py BASELINE_DIR CURRENT_DIR [--threshold 0.10]
    tools/bench_compare.py --self-test
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import tempfile


class BaselineError(Exception):
    """A committed baseline file is missing, unreadable, or unparsable."""


def load_tree(root: pathlib.Path, strict: bool = False) -> dict[str, float]:
    """Map 'FILE:benchmark_name' -> real_time_ns for every BENCH_*.json.

    strict=True is for the committed baseline tree: an unreadable or
    unparsable file there means the gate would silently compare against
    nothing, so it raises BaselineError instead of warn-and-skip.
    """
    out: dict[str, float] = {}
    for path in sorted(root.glob("BENCH_*.json")):
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as err:
            if strict:
                raise BaselineError(f"unparsable baseline {path}: {err}")
            print(f"warning: skipping unreadable {path}: {err}")
            continue
        loaded = 0
        for bench in doc.get("benchmarks", []):
            name = bench.get("name")
            time_ns = bench.get("real_time_ns")
            if not isinstance(name, str) or not isinstance(time_ns, (int, float)):
                continue
            out[f"{path.name}:{name}"] = float(time_ns)
            loaded += 1
        if strict and loaded == 0:
            raise BaselineError(
                f"baseline {path} contains no usable benchmark entries")
    return out


def load_attribution(root: pathlib.Path) -> dict[str, float]:
    """Map 'FILE:attribution.<field>' -> value for every report that carries
    a latency_attribution object. Parse errors are already handled (or
    raised) by load_tree, so this pass just skips what it cannot read."""
    out: dict[str, float] = {}
    for path in sorted(root.glob("BENCH_*.json")):
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        attribution = doc.get("latency_attribution")
        if not isinstance(attribution, dict):
            continue
        prefix = f"{path.name}:attribution"
        for field in ("attributed_share", "mean_time_to_active_seconds"):
            value = attribution.get(field)
            if isinstance(value, (int, float)):
                out[f"{prefix}.{field}"] = float(value)
        phases = attribution.get("phase_p99_seconds")
        if isinstance(phases, dict):
            for phase, value in sorted(phases.items()):
                if isinstance(value, (int, float)):
                    out[f"{prefix}.p99.{phase}"] = float(value)
    return out


def compare_attribution(baseline: dict[str, float],
                        current: dict[str, float],
                        threshold: float) -> int:
    """Diff latency-attribution fields; return the number of regressions.

    Latency fields regress when they grow past the relative threshold AND
    by more than 1 simulated second (absolute floor: a 0.2s -> 0.3s phase
    is not a finding). attributed_share regresses when it drops by > 0.02
    — the direction is inverted, smaller is worse.
    """
    regressions = 0
    for key in sorted(baseline.keys() | current.keys()):
        base = baseline.get(key)
        cur = current.get(key)
        if base is None:
            print(f"  NEW       {key}  {cur:.4f}")
            continue
        if cur is None:
            print(f"  MISSING   {key}  (baseline {base:.4f})")
            continue
        if key.endswith("attributed_share"):
            regressed = cur < base - 0.02
            tag = "REGRESSED" if regressed else "ok       "
            print(f"  {tag} {key}  {base:.4f} -> {cur:.4f} "
                  f"({cur - base:+.4f})")
        else:
            delta = (cur - base) / base if base > 0 else 0.0
            regressed = cur > base * (1 + threshold) and cur - base > 1.0
            if regressed:
                tag = "REGRESSED"
            elif delta < -threshold and base - cur > 1.0:
                tag = "IMPROVED "
            else:
                tag = "ok       "
            print(f"  {tag} {key}  {base:.3f}s -> {cur:.3f}s "
                  f"({delta:+.1%})")
        regressions += int(regressed)
    return regressions


def check_island_scale(root: pathlib.Path,
                       floor: float = 3.0) -> int:
    """Gate the island-kernel scaling report (BENCH_K1.json) in `root`.

    Unlike the diff gates this checks absolute properties of the current
    tree: the one-worker reference run must be present, every run must
    carry the identical trace digest (determinism is never
    hardware-dependent), and when the producing machine had >= 8 hardware
    threads (speedup_floor_enforced) the 8-way run must have reached the
    speedup floor. Returns the failure count; a tree without an
    island_scale section passes vacuously.
    """
    failures = 0
    for path in sorted(root.glob("BENCH_*.json")):
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        scale = doc.get("island_scale")
        if not isinstance(scale, dict):
            continue
        runs = [run for run in scale.get("runs", []) if isinstance(run, dict)]
        if not any(run.get("threads") == 1 for run in runs):
            print(f"  FAILED    {path.name}:island_scale has no one-worker "
                  f"reference run")
            failures += 1
        digests = {run.get("digest") for run in runs}
        identical = scale.get("digests_identical")
        if identical is not True or len(digests) > 1:
            print(f"  FAILED    {path.name}:island_scale digests diverge "
                  f"across thread counts: {sorted(map(str, digests))}")
            failures += 1
        else:
            print(f"  ok        {path.name}:island_scale digest stable "
                  f"across {len(scale.get('runs', []))} runs")
        if scale.get("speedup_floor_enforced"):
            speedup = scale.get("speedup_8way", 0.0)
            wanted = scale.get("speedup_floor", floor)
            if not isinstance(speedup, (int, float)) or speedup < wanted:
                print(f"  FAILED    {path.name}:island_scale 8-way speedup "
                      f"{speedup} below floor {wanted}")
                failures += 1
            else:
                print(f"  ok        {path.name}:island_scale 8-way speedup "
                      f"{speedup:.2f}x (floor {wanted}x)")
        else:
            print(f"  skipped   {path.name}:island_scale speedup floor "
                  f"(hardware_concurrency "
                  f"{scale.get('hardware_concurrency')} < 8)")
    return failures


def check_multiuser(root: pathlib.Path) -> int:
    """Gate the multi-user storm report (BENCH_U1.json) in `root`.

    Absolute properties of the current tree, mirroring the bench binary's
    own exit gates so a skipped bench stage cannot hide a regression: the
    delta negotiator must stay >= speedup_floor times faster per cycle
    than the retained full-requery reference, fairness (Jain's index over
    per-user matched jobs) must hold the floor, the campaign must drain,
    the anti-entropy sweep must record zero divergences, and both the
    kernel digest and the outcome digest must be identical across the
    worker counts of the digest runs. Returns the failure count; a tree
    without a multiuser section passes vacuously.
    """
    failures = 0
    for path in sorted(root.glob("BENCH_*.json")):
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        storm = doc.get("multiuser")
        if not isinstance(storm, dict):
            continue
        speedup = storm.get("delta_speedup", 0.0)
        floor = storm.get("speedup_floor", 5.0)
        if not isinstance(speedup, (int, float)) or speedup < floor:
            print(f"  FAILED    {path.name}:multiuser delta speedup "
                  f"{speedup} below floor {floor}")
            failures += 1
        else:
            print(f"  ok        {path.name}:multiuser delta speedup "
                  f"{speedup:.2f}x (floor {floor}x)")
        jain = storm.get("jain", 0.0)
        jain_floor = storm.get("jain_floor", 0.9)
        if not isinstance(jain, (int, float)) or jain < jain_floor:
            print(f"  FAILED    {path.name}:multiuser Jain index "
                  f"{jain} below floor {jain_floor}")
            failures += 1
        else:
            print(f"  ok        {path.name}:multiuser Jain index "
                  f"{jain:.4f} (floor {jain_floor})")
        if storm.get("drained") is not True:
            print(f"  FAILED    {path.name}:multiuser campaign did not "
                  f"drain ({storm.get('jobs_completed')} completed)")
            failures += 1
        divergences = storm.get("divergences")
        if divergences != 0:
            print(f"  FAILED    {path.name}:multiuser anti-entropy sweep "
                  f"recorded {divergences} divergence(s)")
            failures += 1
        runs = [run for run in storm.get("digest_runs", [])
                if isinstance(run, dict)]
        pairs = {(run.get("kernel_digest"), run.get("outcome_digest"))
                 for run in runs}
        if storm.get("digests_identical") is not True or len(pairs) > 1:
            print(f"  FAILED    {path.name}:multiuser digests diverge "
                  f"across worker counts: {sorted(map(str, pairs))}")
            failures += 1
        else:
            print(f"  ok        {path.name}:multiuser digests stable "
                  f"across {len(runs)} worker counts")
    return failures


def fmt_ns(ns: float) -> str:
    if ns >= 1e6:
        return f"{ns / 1e6:9.3f} ms"
    if ns >= 1e3:
        return f"{ns / 1e3:9.3f} us"
    return f"{ns:9.1f} ns"


def compare(baseline: dict[str, float], current: dict[str, float],
            threshold: float) -> int:
    """Print the comparison table; return the number of regressions."""
    regressions = 0
    for key in sorted(baseline.keys() | current.keys()):
        base = baseline.get(key)
        cur = current.get(key)
        if base is None:
            print(f"  NEW       {key}  {fmt_ns(cur)}")
            continue
        if cur is None:
            print(f"  MISSING   {key}  (baseline {fmt_ns(base)})")
            continue
        delta = (cur - base) / base if base > 0 else 0.0
        if delta > threshold:
            regressions += 1
            tag = "REGRESSED"
        elif delta < -threshold:
            tag = "IMPROVED "
        else:
            tag = "ok       "
        print(f"  {tag} {key}  {fmt_ns(base)} -> {fmt_ns(cur)} "
              f"({delta:+.1%})")
    return regressions


def self_test() -> int:
    """Exercise load/compare against synthetic trees; 0 on success."""
    def make_tree(root: pathlib.Path, times: dict[str, float]) -> None:
        doc = {"bench": "T", "benchmarks": [
            {"name": name, "real_time_ns": ns, "cpu_time_ns": ns,
             "iterations": 1} for name, ns in times.items()]}
        (root / "BENCH_T.json").write_text(json.dumps(doc))

    def make_attributed_tree(root: pathlib.Path, share: float,
                             poll_p99: float, rtt_p99: float) -> None:
        doc = {"bench": "A", "benchmarks": [
            {"name": "campaign", "real_time_ns": 100.0,
             "cpu_time_ns": 100.0, "iterations": 1}],
            "latency_attribution": {
                "attributed_share": share,
                "mean_time_to_active_seconds": 500.0,
                "phase_p99_seconds": {"poll-wait": poll_p99,
                                      "gram-submit-rtt": rtt_p99}}}
        (root / "BENCH_A.json").write_text(json.dumps(doc))

    def make_scale_tree(root: pathlib.Path, digests: list[str],
                        enforced: bool, speedup: float,
                        threads: tuple[int, ...] = (1, 2, 4, 8)) -> None:
        doc = {"bench": "K", "benchmarks": [
            {"name": "BM_IslandScale/N1", "real_time_ns": 100.0,
             "cpu_time_ns": 100.0, "iterations": 1}],
            "island_scale": {
                "hardware_concurrency": 8 if enforced else 1,
                "digests_identical": len(set(digests)) == 1,
                "speedup_8way": speedup,
                "speedup_floor": 3.0,
                "speedup_floor_enforced": enforced,
                "runs": [{"threads": n, "digest": d, "wall_ns": 100.0}
                         for n, d in zip(threads, digests)]}}
        (root / "BENCH_K.json").write_text(json.dumps(doc))

    def make_multiuser_tree(root: pathlib.Path, speedup: float, jain: float,
                            drained: bool = True, divergences: int = 0,
                            outcomes: tuple[str, ...] = ("0x1",) * 3,
                            kernels: tuple[str, ...] = ("0x9",) * 3) -> None:
        doc = {"bench": "U", "benchmarks": [
            {"name": "BM_MultiUserStorm/N1", "real_time_ns": 100.0,
             "cpu_time_ns": 100.0, "iterations": 1}],
            "multiuser": {
                "delta_speedup": speedup, "speedup_floor": 5.0,
                "jain": jain, "jain_floor": 0.9,
                "drained": drained, "jobs_completed": 10,
                "divergences": divergences,
                "digests_identical": len(set(zip(kernels, outcomes))) == 1,
                "digest_runs": [
                    {"mode": m, "outcome_digest": d, "kernel_digest": k}
                    for m, d, k in zip(("N1", "N2", "N4"), outcomes,
                                       kernels)]}}
        (root / "BENCH_U.json").write_text(json.dumps(doc))

    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        base_dir = pathlib.Path(tmp) / "base"
        cur_dir = pathlib.Path(tmp) / "cur"
        base_dir.mkdir()
        cur_dir.mkdir()

        # Island-scale gate: identical digests + met floor pass; diverging
        # digests fail even when the floor is unenforced; an enforced floor
        # catches a 2x-only 8-way run; a 1-core machine skips the floor but
        # still checks digests.
        scale_dir = pathlib.Path(tmp) / "scale"
        scale_dir.mkdir()
        same = ["0xabc"] * 4
        make_scale_tree(scale_dir, same, enforced=True, speedup=3.4)
        if check_island_scale(scale_dir) != 0:
            failures.append("healthy island_scale tree must pass")
        make_scale_tree(scale_dir, ["0xabc", "0xabc", "0xdef", "0xabc"],
                        enforced=False, speedup=0.9)
        if check_island_scale(scale_dir) != 1:
            failures.append("diverging digests must fail the scale gate")
        make_scale_tree(scale_dir, same, enforced=True, speedup=2.0)
        if check_island_scale(scale_dir) != 1:
            failures.append("enforced floor must catch a 2.0x 8-way run")
        make_scale_tree(scale_dir, same, enforced=False, speedup=0.8)
        if check_island_scale(scale_dir) != 0:
            failures.append("unenforced floor must not fail on speedup")
        make_scale_tree(scale_dir, same, enforced=False, speedup=0.8,
                        threads=(2, 4, 8))
        if check_island_scale(scale_dir) != 1:
            failures.append("a report without the N1 reference must fail")
        (scale_dir / "BENCH_K.json").unlink()

        # Multi-user gate: a healthy report passes; a sub-floor speedup, a
        # sub-floor Jain index, an undrained campaign, a sweep divergence,
        # and an outcome or kernel digest mismatch across worker counts
        # each fail exactly once.
        storm_dir = pathlib.Path(tmp) / "storm"
        storm_dir.mkdir()
        make_multiuser_tree(storm_dir, speedup=8.0, jain=0.95)
        if check_multiuser(storm_dir) != 0:
            failures.append("healthy multiuser tree must pass")
        make_multiuser_tree(storm_dir, speedup=3.0, jain=0.95)
        if check_multiuser(storm_dir) != 1:
            failures.append("sub-floor delta speedup must fail")
        make_multiuser_tree(storm_dir, speedup=8.0, jain=0.5)
        if check_multiuser(storm_dir) != 1:
            failures.append("sub-floor Jain index must fail")
        make_multiuser_tree(storm_dir, speedup=8.0, jain=0.95, drained=False)
        if check_multiuser(storm_dir) != 1:
            failures.append("undrained campaign must fail")
        make_multiuser_tree(storm_dir, speedup=8.0, jain=0.95, divergences=2)
        if check_multiuser(storm_dir) != 1:
            failures.append("sweep divergences must fail")
        make_multiuser_tree(storm_dir, speedup=8.0, jain=0.95,
                            outcomes=("0x1", "0x1", "0x2"))
        if check_multiuser(storm_dir) != 1:
            failures.append("outcome digest divergence must fail")
        make_multiuser_tree(storm_dir, speedup=8.0, jain=0.95,
                            kernels=("0x9", "0x8", "0x9"))
        if check_multiuser(storm_dir) != 1:
            failures.append("kernel digest divergence must fail")
        (storm_dir / "BENCH_U.json").unlink()
        make_tree(base_dir, {"steady": 100.0, "faster": 100.0,
                             "slower": 100.0, "gone": 100.0})
        make_tree(cur_dir, {"steady": 104.0, "faster": 50.0,
                            "slower": 150.0, "fresh": 100.0})

        # Attribution gate: a phase p99 growing 600s -> 900s and the
        # attributed share dropping 1.0 -> 0.9 are both regressions; the
        # sub-second rtt wobble (0.2s -> 0.3s, +50% but tiny) is not.
        make_attributed_tree(base_dir, share=1.0, poll_p99=600.0,
                             rtt_p99=0.2)
        make_attributed_tree(cur_dir, share=0.9, poll_p99=900.0,
                             rtt_p99=0.3)
        attribution_base = load_attribution(base_dir)
        attribution_cur = load_attribution(cur_dir)
        if len(attribution_base) != 4:
            failures.append("load_attribution returned wrong entry count")
        hits = compare_attribution(attribution_base, attribution_cur,
                                   threshold=0.10)
        if hits != 2:
            failures.append(
                f"expected 2 attribution regressions, got {hits}")
        if compare_attribution(attribution_base, attribution_base,
                               threshold=0.10) != 0:
            failures.append("identical attribution must not regress")
        (base_dir / "BENCH_A.json").unlink()
        (cur_dir / "BENCH_A.json").unlink()
        baseline = load_tree(base_dir)
        current = load_tree(cur_dir)
        if len(baseline) != 4 or len(current) != 4:
            failures.append("load_tree returned wrong entry counts")
        regressions = compare(baseline, current, threshold=0.10)
        if regressions != 1:
            failures.append(f"expected exactly 1 regression, got {regressions}")
        if compare(baseline, baseline, threshold=0.10) != 0:
            failures.append("identical trees must not regress")
        # A looser threshold should absorb the 1.5x slowdown.
        if compare(baseline, current, threshold=0.60) != 0:
            failures.append("threshold=0.60 should absorb a +50% delta")
        # Unreadable JSON in the *current* tree is skipped, not fatal: a
        # half-written bench run should not mask the rest of the report.
        (cur_dir / "BENCH_BAD.json").write_text("{not json")
        if len(load_tree(cur_dir)) != 4:
            failures.append("malformed current-tree file should be skipped")
        # ...but in the *baseline* tree it is an error: a corrupt committed
        # baseline must fail the gate, not silently compare against nothing.
        try:
            load_tree(cur_dir, strict=True)
            failures.append("strict load must reject a malformed baseline")
        except BaselineError:
            pass
        # A baseline file with no usable entries is equally fatal.
        (cur_dir / "BENCH_BAD.json").write_text(json.dumps({"benchmarks": []}))
        try:
            load_tree(cur_dir, strict=True)
            failures.append("strict load must reject an empty baseline file")
        except BaselineError:
            pass
        (cur_dir / "BENCH_BAD.json").unlink()
        if len(load_tree(cur_dir, strict=True)) != 4:
            failures.append("strict load should accept a healthy tree")
    for failure in failures:
        print(f"SELF-TEST FAIL: {failure}")
    print("bench_compare self-test:", "FAIL" if failures else "OK")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", nargs="?", help="baseline BENCH_*.json dir")
    parser.add_argument("current", nargs="?", help="current BENCH_*.json dir")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="relative slowdown that counts as a regression")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in self test and exit")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if not args.baseline or not args.current:
        parser.error("baseline and current directories are required")

    base_root = pathlib.Path(args.baseline)
    if not base_root.is_dir():
        print(f"error: baseline directory {args.baseline} does not exist",
              file=sys.stderr)
        return 2
    try:
        baseline = load_tree(base_root, strict=True)
    except BaselineError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    current = load_tree(pathlib.Path(args.current))
    if not baseline:
        # An empty baseline tree would make every run pass vacuously.
        print(f"error: no BENCH_*.json under {args.baseline}; the comparison "
              "gate needs committed baselines", file=sys.stderr)
        return 2
    print(f"comparing {args.current} against {args.baseline} "
          f"(threshold {args.threshold:.0%})")
    regressions = compare(baseline, current, args.threshold)
    regressions += compare_attribution(load_attribution(base_root),
                                       load_attribution(
                                           pathlib.Path(args.current)),
                                       args.threshold)
    regressions += check_island_scale(pathlib.Path(args.current))
    regressions += check_multiuser(pathlib.Path(args.current))
    if regressions:
        print(f"{regressions} benchmark(s) regressed more than "
              f"{args.threshold:.0%}")
        return 1
    print("no regressions past threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
