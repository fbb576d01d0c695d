#!/usr/bin/env bash
# Tiered CI entry point (see README "Testing"):
#   ./ci.sh          — warnings-as-errors build + fast test tier (every push)
#                      plus a one-seed slice of the shard determinism matrix,
#                      a CLI smoke (optimize, simulate, admission, and a
#                      flag the command does not read must exit 2),
#                      a smoke run of benches F2, F3, F7, F8 and F15, and guards
#                      that no test oracle is defined under src/ and that
#                      src/core and src/ctrl include nothing from src/sim
#   ./ci.sh full     — same build + the full suite including slow DES tests
#   ./ci.sh asan     — ASan+UBSan build (halt on first report) + fast tier
#   ./ci.sh ubsan    — UBSan-only build (halt on first report) + fast tier
#                      + one-seed shard slice + trace smoke; cheap enough to
#                      cover more ground than the asan tier per minute
#   ./ci.sh tsan     — ThreadSanitizer build + fast tier + the FULL
#                      shard×thread determinism matrix (the barrier and
#                      envelope hand-off run under the race detector)
#                      + the chaos slice (parallel cell solves)
#   ./ci.sh perf     — Release build, run bench_simcore (classic + sharded
#                      sections and the 10k→1M metro sweep), gate ns/event
#                      and solver us/solve against the committed
#                      BENCH_simcore.json (>15% fails), then gate the
#                      observability overhead (<2% hooks/steady-state)
#   ./ci.sh chaos    — controller-failover slice: the full ctrl suite, the
#                      online controller and joint golden cases (both
#                      controllers share core/failover's solve path), the
#                      distributed-plane shard bit-identity and fuzz
#                      scenarios, and a CLI convergence + failover smoke
#                      (coordinator crashes mid-run, audit log must export)
set -euo pipefail

TIER="${1:-fast}"
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

DEFAULT_DIR=build-ci
EXTRA=()
if [[ "$TIER" == "asan" ]]; then
  DEFAULT_DIR=build-asan
  EXTRA=(-DSCALPEL_SANITIZE=ON)
elif [[ "$TIER" == "ubsan" ]]; then
  DEFAULT_DIR=build-ubsan
  EXTRA=(-DSCALPEL_SANITIZE=undefined)
elif [[ "$TIER" == "tsan" ]]; then
  DEFAULT_DIR=build-tsan
  EXTRA=(-DSCALPEL_SANITIZE=thread)
elif [[ "$TIER" == "perf" ]]; then
  # Timing numbers are only comparable to the committed baseline from a
  # pure-Release build (bench_common/build_info flag Debug and sanitizer
  # builds as unoptimized, and the gate would skip itself).
  DEFAULT_DIR=build-perf
  EXTRA=(-DCMAKE_BUILD_TYPE=Release)
fi
BUILD_DIR="${BUILD_DIR:-$DEFAULT_DIR}"

# The perf tier measures, it doesn't lint (the fast tier already builds with
# -Werror); GCC 12's -O3 also trips a known -Wrestrict false positive in
# libstdc++ string concatenation, so warnings stay non-fatal here.
WERROR=ON
[[ "$TIER" == "perf" ]] && WERROR=OFF

cmake -B "$BUILD_DIR" -S . -DSCALPEL_WERROR="$WERROR" "${EXTRA[@]}"
cmake --build "$BUILD_DIR" -j "$JOBS"

# Loads every named file with python3's json module: an independent parser,
# so a bug in our JSON writer cannot hide behind a matching bug in our own
# parser. NaN and Infinity literals are rejected as well.
json_load_check() {
  python3 - "$@" <<'PY'
import json
import sys


def reject(token):
    raise ValueError("non-standard JSON literal " + token)


for path in sys.argv[1:]:
    with open(path) as f:
        json.load(f, parse_constant=reject)
PY
}

# Observability smoke: record a traced overload run through the CLI and
# check the exported JSON parses and its events reconcile exactly with the
# conservation counters (arrived == completed_all + failed_all + shed_all +
# in_flight_end). Exercises the tracer, audit log, and exporters end to end;
# python3 then loads every exported file.
trace_smoke() {
  local cli="$BUILD_DIR/examples/scalpel_cli"
  local dir
  dir="$(mktemp -d)"
  "$cli" topology --preset small_lab --out "$dir/topo.json"
  "$cli" trace --topology "$dir/topo.json" --overload 2.0 --horizon 20 \
    --out "$dir/trace.json" --audit-out "$dir/audit.json" \
    --metrics-out "$dir/metrics.json"
  "$cli" validate-trace --trace "$dir/trace.json" --metrics "$dir/metrics.json"
  json_load_check "$dir/trace.json" "$dir/audit.json" "$dir/metrics.json"
  rm -rf "$dir"
}

# CLI smoke: optimize, a replicated simulate and the admission report run
# on the small lab, and a flag the command does not read (here the retired
# --objective) must exit 2 instead of running with the defaults.
cli_smoke() {
  local cli="$BUILD_DIR/examples/scalpel_cli"
  local dir
  dir="$(mktemp -d)"
  "$cli" topology --preset small_lab --out "$dir/topo.json"
  "$cli" optimize --topology "$dir/topo.json" --out "$dir/dec.json"
  "$cli" simulate --topology "$dir/topo.json" --decision "$dir/dec.json" \
    --horizon 20 --reps 2
  "$cli" admission --topology "$dir/topo.json" --decision "$dir/dec.json"
  local rc=0
  "$cli" optimize --topology "$dir/topo.json" --out "$dir/dec2.json" \
    --objective deadline 2> /dev/null || rc=$?
  rm -rf "$dir"
  if [[ "$rc" != 2 ]]; then
    echo "scalpel_cli optimize --objective: exit $rc, want 2" >&2
    return 1
  fi
}

# Observability pipeline smoke: a lossy-fabric failover run with causal
# span tracing, the windowed time-series recorder, and the SLO burn-rate
# monitor all enabled, exported through the CLI, then validate-trace checks
# that the merged Chrome trace parses, the ctrl.* metrics reconcile with the
# span stream (sent == dropped + delivered + dead-lettered + in-flight),
# and the time series is monotone on its cumulative columns; python3 loads
# all four exported JSON files. `distributed` writes the same four files
# through the same export path and gets the same checks. Then F17's burst
# run, the one bench whose
# table is built from the recorder (1-s samples after each 1-s controller
# tick, aggregated into 10-s windows over a 140-s horizon): it must print
# all 14 windows.
obs_smoke() {
  local cli="$BUILD_DIR/examples/scalpel_cli"
  local dir
  dir="$(mktemp -d)"
  "$cli" obs-report --horizon 24 --drop 0.15 --coord-mtbf 6 \
    --trace-out "$dir/obs_trace.json" \
    --timeseries-out "$dir/obs_series.json" \
    --metrics-out "$dir/obs_metrics.json" \
    --audit-out "$dir/obs_audit.json"
  "$cli" validate-trace --trace "$dir/obs_trace.json" \
    --metrics "$dir/obs_metrics.json"
  json_load_check "$dir/obs_trace.json" "$dir/obs_series.json" \
    "$dir/obs_metrics.json" "$dir/obs_audit.json"
  "$cli" topology --preset campus --devices 8 --servers 3 --seed 7 \
    --out "$dir/topo.json"
  "$cli" distributed --topology "$dir/topo.json" --drop 0.2 \
    --coord-mtbf 10 --horizon 40 \
    --audit-out "$dir/dist_audit.json" \
    --trace-out "$dir/dist_trace.json" \
    --metrics-out "$dir/dist_metrics.json" \
    --timeseries-out "$dir/dist_series.json"
  "$cli" validate-trace --trace "$dir/dist_trace.json" \
    --metrics "$dir/dist_metrics.json"
  json_load_check "$dir/dist_trace.json" "$dir/dist_series.json" \
    "$dir/dist_metrics.json" "$dir/dist_audit.json"
  rm -rf "$dir"
  local windows
  windows="$("$BUILD_DIR/bench/bench_f17_overload" |
    awk '/^\| window start s/ { on = 1; next }
         on && /^\|-/ { next }
         on && /^\|/ { n++; next }
         on { on = 0 }
         END { print n + 0 }')"
  if [[ "$windows" != 14 ]]; then
    echo "bench_f17_overload burst table: $windows windows, want 14" >&2
    return 1
  fi
}

# The test oracles and reference objectives live in tests/oracles
# (scalpel_oracles, outside scalpel::all) so no production path can reach
# them; fail if one of them is named under src/ again. `proportional` is
# matched as a call or declaration only: comments use the plain word.
oracle_guard() {
  if grep -rnwE \
      'BinaryHeapEventQueue|exhaustive_exit_setting|greedy_exit_setting|linear_pareto_insert|exhaustive_offloading|inverse_cost|mean_sojourn|mm1_wait|window_base_row' \
      src || grep -rnE '\bproportional\(' src; then
    echo "test oracles belong in tests/oracles, not src/" >&2
    return 1
  fi
}

# Layering: the controller seam (ControlAction, ObservingController) lives
# in core/observation.hpp, so neither the controllers (src/core, src/ctrl)
# nor anything they include may reach into the engine.
layering_guard() {
  if grep -rnE '#include "sim/' src/core src/ctrl; then
    echo "src/core and src/ctrl must not include sim/ headers" >&2
    return 1
  fi
}

# Bench smoke: five reproduction benches run to completion. Together they
# reach the profile-priced exit-setting DP beside the partition curve (F2)
# and the greedy and exhaustive oracles (F3), every baseline scheme,
# small_exhaustive (F7's optimality gap), both joint ablations (F8) and
# non-uniform input difficulty (F15), which no other tier runs end to end.
# Tables go to /dev/null; a failed requirement or a crash fails the tier.
bench_smoke() {
  local b
  for b in bench_f2_bandwidth bench_f3_exits bench_f7_scalability \
      bench_f8_ablation bench_f15_difficulty; do
    "$BUILD_DIR/bench/$b" > /dev/null
  done
}

# One-seed slice of the shard×thread determinism matrix: every scenario
# shape, both plan unit tests and the sharded trace drop accounting, seed
# index 0 only. Fast enough for every push; the full four-seed matrix
# (label "shard") runs in full/tsan. The golden suite (label "fast") pins
# every output at shards {1,2,4} x threads {1,4} in every tier.
shard_slice() {
  "$BUILD_DIR/tests/test_shard" --gtest_filter='Seeds/ShardEquivalenceTest.*/0:ShardEquivalence.*:ShardPlan.*'
  "$BUILD_DIR/tests/test_sim" --gtest_filter='Trace.ShardedRingOverflowReportsDrops'
}

# Controller-failover slice: every src/ctrl unit/replay test, the online
# controller's tests and the joint goldens (the two controllers reduce,
# solve and fit through the same core/failover code), the distributed-plane
# bit-identity and shard-invariance checks, then a CLI run where the
# coordinator crashes on an MTBF process over a lossy fabric and the audit
# log must come out parseable.
chaos_slice() {
  "$BUILD_DIR/tests/test_ctrl"
  "$BUILD_DIR/tests/test_core" --gtest_filter='Online*:JointGolden.*'
  "$BUILD_DIR/tests/test_shard" \
    --gtest_filter='ShardEquivalence.DistributedControlPlaneBitIdentical:ShardFuzz.DistributedPlaneIsShardCountInvariant'
  ctest --test-dir "$BUILD_DIR" --output-on-failure \
    -R 'SimGoldenTest.*/(DistributedControlPlane|ObservabilityPipeline)$'
  local cli="$BUILD_DIR/examples/scalpel_cli"
  local dir
  dir="$(mktemp -d)"
  "$cli" topology --preset campus --devices 8 --servers 3 --seed 7 \
    --out "$dir/topo.json"
  "$cli" distributed --topology "$dir/topo.json" --drop 0.2 \
    --coord-mtbf 10 --horizon 40 --audit-out "$dir/audit.json"
  json_load_check "$dir/audit.json"
  rm -rf "$dir"
}

case "$TIER" in
  fast|asan|ubsan)
    oracle_guard
    layering_guard
    ctest --test-dir "$BUILD_DIR" -L fast --output-on-failure -j "$JOBS"
    shard_slice
    cli_smoke
    trace_smoke
    obs_smoke
    bench_smoke
    ;;
  tsan)
    # The sharded engine runs its shards in parallel inside the epoch
    # barriers, and the solver's surgery step, the online ladder and the
    # distributed plane's cell solves fan out on the shared pool: tsan gets
    # the whole matrix, fuzzer included, and the chaos slice, whose CLI
    # distributed run solves the cells side by side.
    ctest --test-dir "$BUILD_DIR" -L 'fast|shard' --output-on-failure -j "$JOBS"
    trace_smoke
    chaos_slice
    ;;
  full)
    ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"
    trace_smoke
    obs_smoke
    ;;
  chaos)
    chaos_slice
    ;;
  perf)
    # Produce a candidate report and gate it against the tracked baseline.
    # bench_simcore exits 1 when ns/event regresses past --tolerance; the
    # candidate JSON is left behind for artifact upload / re-baselining.
    # --shards/--sweep match how the committed baseline is produced, so the
    # sharded section gates too and the metro sweep stays fresh.
    CANDIDATE="${PERF_CANDIDATE:-$BUILD_DIR/BENCH_simcore.candidate.json}"
    "$BUILD_DIR/bench/bench_simcore" \
      --shards 4 --sweep 1000000 \
      --json "$CANDIDATE" \
      --check BENCH_simcore.json \
      --tolerance "${PERF_TOLERANCE:-0.15}"
    # Observability overhead gate: exits 1 if the disabled tracing hooks or
    # the steady-state time-series + SLO sampling cost exceed 2% of the
    # untraced wall time (or the end-to-end diff trips its regression
    # backstop).
    "$BUILD_DIR/bench/bench_obs_overhead"
    ;;
  *)
    echo "usage: $0 [fast|full|asan|ubsan|tsan|perf|chaos]" >&2
    exit 2
    ;;
esac
