#!/bin/sh
# Perf smoke: guard the single-job wave-engine throughput.
#
# Builds concurrent_jobs in a dedicated Release tree (build-perf/), runs
# it at a small workload scale, extracts the session_threads = 1 wall of
# its session-threads sweep from BENCH_jobs.json (the 3 jobs drained one
# at a time), and compares it against a locally recorded baseline: >10%
# slower fails. The baseline file holds "bench scale wall"; it is
# recorded on the first run or whenever the bench or the smoke scale
# changes, and ratcheted down when a run comes in faster, so the check
# is self-calibrating per machine — no committed numbers, no cross-host
# noise, and a number from another bench is never compared.
#
# A bit-identity failure (the bench's exit 1) fails the smoke.
#
# Usage (from the repo root):
#     ci/perf_smoke.sh             # build + run + compare
#     ci/perf_smoke.sh --if-enabled  # ctest entry point: exit 77
#                                    # (skip) unless DIGRAPH_CI_PERF=1
#
# Knobs: DIGRAPH_PERF_SMOKE_SCALE (default 0.05),
#        DIGRAPH_PERF_SMOKE_TOLERANCE (default 1.10 = +10%).
set -eu

if [ "${1:-}" = "--if-enabled" ]; then
    shift
    if [ "${DIGRAPH_CI_PERF:-0}" != "1" ]; then
        echo "perf_smoke: DIGRAPH_CI_PERF!=1, skipping" >&2
        exit 77
    fi
fi

cd "$(dirname "$0")/.."

BENCH=concurrent_jobs
SCALE="${DIGRAPH_PERF_SMOKE_SCALE:-0.05}"
TOLERANCE="${DIGRAPH_PERF_SMOKE_TOLERANCE:-1.10}"

cmake -B build-perf -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build-perf -j --target "$BENCH"

cd build-perf
if ! DIGRAPH_BENCH_SCALE="$SCALE" "./bench/$BENCH"; then
    echo "perf_smoke: $BENCH failed" >&2
    exit 1
fi

# The session_threads = 1 point of the sweep.
wall=$(awk -F'"wall_seconds": ' '/"session_threads": 1,/ {
           split($2, a, ","); print a[1]; exit
       }' BENCH_jobs.json)
if [ -z "$wall" ]; then
    echo "perf_smoke: could not read the 1-session-thread wall from" \
         "BENCH_jobs.json" >&2
    exit 1
fi

baseline_file="perf_smoke_baseline.txt"
base_bench=""
base_scale=""
base_wall=""
if [ -f "$baseline_file" ]; then
    read -r base_bench base_scale base_wall < "$baseline_file" || true
fi
if [ "$base_bench" != "$BENCH" ] || [ "$base_scale" != "$SCALE" ] ||
   [ -z "$base_wall" ]; then
    printf '%s %s %s\n' "$BENCH" "$SCALE" "$wall" > "$baseline_file"
    echo "perf_smoke: recorded baseline ${wall}s ($BENCH, scale $SCALE)"
    exit 0
fi

regressed=$(awk -v w="$wall" -v b="$base_wall" -v t="$TOLERANCE" \
    'BEGIN { print (w > b * t) ? 1 : 0 }')
if [ "$regressed" = 1 ]; then
    echo "perf_smoke: FAIL — 1-session-thread wall ${wall}s exceeds" \
         "baseline ${base_wall}s by more than $TOLERANCE" >&2
    exit 1
fi

improved=$(awk -v w="$wall" -v b="$base_wall" \
    'BEGIN { print (w < b) ? 1 : 0 }')
if [ "$improved" = 1 ]; then
    printf '%s %s %s\n' "$BENCH" "$SCALE" "$wall" > "$baseline_file"
    echo "perf_smoke: pass — ${wall}s (baseline ratcheted from ${base_wall}s)"
else
    echo "perf_smoke: pass — ${wall}s (baseline ${base_wall}s)"
fi
