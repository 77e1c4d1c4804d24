#!/usr/bin/env bash
# Full correctness gate: determinism lint, partition-safety analysis, a
# warnings-as-errors build with the plain test suite, the DetSan smoke
# runs, then the same suite under ASan+UBSan (with the invariant auditor
# compiled into examples/benches). Mirrors what CI runs; use the CMake
# presets (dev / asan / tsan) for the individual pieces. Each stage prints
# its wall time so regressions in the gate itself are visible.
set -euo pipefail
cd "$(dirname "$0")/.."

stage_started=0
stage_name=""
stage_begin() {
  stage_name="$1"
  stage_started=${SECONDS}
  echo "== ${stage_name} =="
}
stage_end() {
  echo "-- ${stage_name}: $((SECONDS - stage_started))s"
}

stage_begin "determinism lint"
python3 tools/lint/condorg_lint.py --root .
python3 tools/lint/condorg_lint.py --root . --self-test
stage_end

stage_begin "analyze.partition (ownership report + rule self-test)"
# The static half of the partition-safety story: zero violations in the
# tree, every fixture mutation caught, and the ownership inventory
# (partitions, HostLocal fields, audited globals) written to the report.
python3 tools/analyze/condorg_partition.py --root . \
  --report build/partition_report.json
python3 tools/analyze/condorg_partition.py --self-test
stage_end

stage_begin "analyze.proto (protocol-conformance report + rule self-test)"
# The spec-checked message graph, the one source of the island cut: every
# spec entry must have send sites in its declared senders and handler arms
# in its declared receivers, every typed send site and arm must have a spec
# entry, every handler must reply on all paths, every durable transition's
# crash points must exist in code AND in the Explorer's enumerated table,
# and every protocol timer must re-arm. Zero unallowlisted findings; the
# report's cut types feed the profile gate.
python3 tools/analyze/condorg_proto.py --root . \
  --report build/proto_report.json
python3 tools/analyze/condorg_proto.py --self-test
stage_end

jobs="$(nproc 2>/dev/null || echo 4)"

stage_begin "dev build (warnings are errors) + tests"
cmake --preset dev >/dev/null
cmake --build --preset dev -j "${jobs}"
ctest --preset dev -j "${jobs}"
stage_end

stage_begin "clang-tidy (skips when not installed)"
bash scripts/tidy.sh
stage_end

stage_begin "detsan.smoke (determinism sanitizer armed)"
# The dynamic half: quickstart, the fault drill, the glide-in pool, and
# the S1 submission storm must complete with zero host-ownership
# violations when DetSan is armed via the environment (exit 4 is the
# detsan-failure exit).
CONDORG_DETSAN=1 ./build/examples/quickstart >/dev/null
CONDORG_DETSAN=1 ./build/examples/fault_drill >/dev/null
CONDORG_DETSAN=1 ./build/examples/glidein_pool >/dev/null
CONDORG_DETSAN=1 CONDORG_BENCH_DIR="$(mktemp -d)" \
  ./build/bench/bench_s1_submission_storm \
  --benchmark_filter='BM_SubmissionStorm/1000x8sites' >/dev/null
stage_end

stage_begin "schedule-space exploration"
# The model checker must exhaust the bounded quickstart schedule space with
# zero invariant violations, and must catch two seeded mutations with
# counterexamples that replay to the identical failing audit: a broken
# gatekeeper dedup, and a direct cross-host state access (DetSan).
./build/tools/condorg_explore --scenario quickstart \
  --require-distinct 1000 --require-exhausted
CONDORG_MUTATE_DEDUP=1 ./build/tools/condorg_explore --scenario quickstart \
  --expect-violation >/dev/null
CONDORG_MUTATE_CROSS_HOST=1 ./build/tools/condorg_explore \
  --scenario quickstart --expect-violation >/dev/null
stage_end

stage_begin "kernel.parallel_digest (island kernel, N-independence)"
# The island kernel must produce byte-identical results whatever the
# worker count. Full scenario output (job tables, recovery epilogue) of
# three examples of at most 20 islands is the proxy here. The
# digest/tracer/explorer matrix is tests/parallel_digest_test.cpp; its
# idle-islands case runs 240 idle hosts beside two chatty ones, where a
# window visits a few islands out of hundreds, so the front index decides
# what runs. bench_k1_island_scale gates the same property on a campaign
# 100x the examples' size.
pd_dir="$(mktemp -d)"
CONDORG_PARALLEL=1 ./build/examples/quickstart > "${pd_dir}/q1.out"
CONDORG_PARALLEL=8 ./build/examples/quickstart > "${pd_dir}/q8.out"
cmp "${pd_dir}/q1.out" "${pd_dir}/q8.out"
CONDORG_PARALLEL=2 ./build/examples/fault_drill > "${pd_dir}/f2.out"
CONDORG_PARALLEL=4 ./build/examples/fault_drill > "${pd_dir}/f4.out"
cmp "${pd_dir}/f2.out" "${pd_dir}/f4.out"
CONDORG_PARALLEL=1 ./build/examples/glidein_pool > "${pd_dir}/g1.out"
CONDORG_PARALLEL=4 ./build/examples/glidein_pool > "${pd_dir}/g4.out"
CONDORG_PARALLEL=8 ./build/examples/glidein_pool > "${pd_dir}/g8.out"
cmp "${pd_dir}/g1.out" "${pd_dir}/g4.out"
cmp "${pd_dir}/g1.out" "${pd_dir}/g8.out"
rm -rf "${pd_dir}"
stage_end

stage_begin "trace determinism + report self-check"
# Two same-seed quickstart runs must export byte-identical trace JSONL, and
# the report tool must find no structural problems in it.
trace_dir="$(mktemp -d)"
trap 'rm -rf "${trace_dir}"' EXIT
(cd "${trace_dir}" &&
  CONDORG_TRACE=run1.jsonl CONDORG_METRICS=run1-metrics.json \
    "${OLDPWD}/build/examples/quickstart" >/dev/null &&
  CONDORG_TRACE=run2.jsonl \
    "${OLDPWD}/build/examples/quickstart" >/dev/null)
cmp "${trace_dir}/run1.jsonl" "${trace_dir}/run2.jsonl"
./build/tools/condorg_report --trace "${trace_dir}/run1.jsonl" \
  --metrics "${trace_dir}/run1-metrics.json" --self-check
stage_end

stage_begin "report.critical_path (byte-stable causal attribution)"
# The critical-path walk must pass its own self-check (per-job phase
# attributions tile the walk window exactly — violations exit nonzero) and
# both the JSON and the folded-flamegraph exports must be byte-identical
# across the two same-seed runs above.
./build/tools/condorg_report --trace "${trace_dir}/run1.jsonl" \
  --critical-path > "${trace_dir}/cp1.json"
./build/tools/condorg_report --trace "${trace_dir}/run2.jsonl" \
  --critical-path > "${trace_dir}/cp2.json"
cmp "${trace_dir}/cp1.json" "${trace_dir}/cp2.json"
./build/tools/condorg_report --trace "${trace_dir}/run1.jsonl" \
  --flame > "${trace_dir}/cp1.folded"
./build/tools/condorg_report --trace "${trace_dir}/run2.jsonl" \
  --flame > "${trace_dir}/cp2.folded"
cmp "${trace_dir}/cp1.folded" "${trace_dir}/cp2.folded"
stage_end

stage_begin "profile.traffic_matrix (spec cut == dynamic)"
# The protocol spec's cut types must equal the kernel profiler's measured
# cross-partition traffic, in both directions, and the dumped profile must
# render through the report CLI.
./build/tools/condorg_profile_check build/proto_report.json \
  --dump build/profile.json
./build/tools/condorg_report --profile build/profile.json \
  --traffic-matrix >/dev/null
stage_end

stage_begin "bench telemetry comparator + U1 gates"
# The comparator's own logic is deterministic and always checked; diffing a
# fresh bench run against the committed baselines needs real (noisy) numbers,
# so it only runs when asked: CONDORG_BENCH_COMPARE=1 after running the
# bench binaries (they drop BENCH_<id>.json next to themselves).
python3 tools/bench_compare.py --self-test
# The multi-user storm (about 12 s) exits nonzero unless the delta cycle
# beats the pre-delta cycle by its speedup floor, Jain's index holds, the
# queue drains, the sweep records no divergence and the digests agree
# across worker counts.
(cd build/bench && ./bench_u1_multiuser >/dev/null)
if [[ "${CONDORG_BENCH_COMPARE:-0}" == "1" ]]; then
  # S1 is cheap enough to (re)generate here; M1/M2 are compared from
  # whatever run the operator produced beforehand.
  (cd build/bench && ./bench_s1_submission_storm >/dev/null)
  python3 tools/bench_compare.py bench/baselines build/bench
fi
stage_end

stage_begin "ASan+UBSan build + tests (auditor enabled)"
cmake --preset asan >/dev/null
cmake --build --preset asan -j "${jobs}"
ctest --preset asan -j "${jobs}"
stage_end

stage_begin "TSan island kernel (racy-by-construction suite)"
# The windowed executor really runs worker threads, so the digest tests
# double as the race harness: build just the island suites under
# ThreadSanitizer and run them with an 8-thread budget. The idle-islands
# case at 8 workers covers the lock-free window completion count and the
# list of filled inboxes that senders append to; the glide-in cluster-crash
# case covers the per-host probe loop across a node crash and restart
# (ProbeLoop, ShadowMonitor, the restarted GlideInStarter's MISSING); the
# Schedds-past-the-label-cap case runs 72 user hosts, more than the metrics
# registry's 64 series per family, whose Schedds write their per-host gauges
# from several islands in one window.
cmake --preset tsan >/dev/null
cmake --build --preset tsan -j "${jobs}" \
  --target island_test parallel_digest_test
CONDORG_PARALLEL=8 ./build-tsan/tests/island_test
./build-tsan/tests/parallel_digest_test
stage_end

echo "ALL CHECKS PASSED"
