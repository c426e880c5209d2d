#!/bin/sh
# Memory-check the engine under AddressSanitizer + UBSan.
#
# Builds the repo in a dedicated tree (build-asan/) with
# -DDIGRAPH_SANITIZE=address,undefined and runs the engine and
# fault-tolerance test binaries. The fault suite is the interesting one
# here: checkpoint restore rewrites the V_val/E_val arrays in place and
# recovery drops device residency wholesale, so any stale index or
# use-after-rollback shows up under ASan. test_job_manager,
# test_graph_service, and the concurrent-jobs smoke add the
# multi-ValuePlane lifecycle (per-job state allocated/freed around one
# shared substrate, including engines destroyed after preempted runs).
# test_multisource and test_factory_validation cover the K-wide lane
# arrays (stripe indexing, delta-encoded refresh pulls)
# and the checked factory/CLI parsing paths. test_substrate_epochs and
# the live-ingest smoke add the epoch chain: graphs and substrates
# freed on retire while pinned queries still read older snapshots.
#
# Usage (from the repo root):
#     ci/asan.sh               # configure + build + run
#     ci/asan.sh -R Fault      # extra args are passed through to ctest
#     ci/asan.sh --if-enabled  # ctest entry point: exit 77 (skip)
#                              # unless DIGRAPH_CI_SANITIZE=1
set -eu

if [ "${1:-}" = "--if-enabled" ]; then
    shift
    if [ "${DIGRAPH_CI_SANITIZE:-0}" != "1" ]; then
        echo "asan: DIGRAPH_CI_SANITIZE!=1, skipping" >&2
        exit 77
    fi
fi

cd "$(dirname "$0")/.."

cmake -B build-asan -S . -DDIGRAPH_SANITIZE=address,undefined \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build-asan -j \
    --target test_fault_tolerance test_robustness \
    test_engine_parallel test_engine_features test_io test_snapshot \
    test_graph_service test_substrate_epochs test_job_manager \
    test_wave_kernels test_multisource test_factory_validation \
    concurrent_jobs live_ingest

if [ "$#" -gt 0 ]; then
    ctest --test-dir build-asan --output-on-failure "$@"
else
    ctest --test-dir build-asan --output-on-failure \
        -R 'test_(fault_tolerance|robustness|engine_parallel|engine_features|io|snapshot|graph_service|substrate_epochs|job_manager|wave_kernels|multisource|factory_validation)$|bench_jobs_smoke|bench_live_smoke'
fi
