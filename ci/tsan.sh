#!/bin/sh
# Race-check the engine's host concurrency under ThreadSanitizer.
#
# Builds the repo in a dedicated tree (build-tsan/) with
# -DDIGRAPH_SANITIZE=thread and runs the engine test binaries. A job's
# own dispatches run one at a time on its thread; what still runs
# concurrently is: GraphService job threads (test_graph_service races
# the inter-job scheduler — grants, wave-boundary preemption — against
# running engines, test_job_manager and bench_jobs_smoke race whole
# jobs over one shared substrate, test_multisource runs lane jobs
# through the service), substrate epochs (test_substrate_epochs and
# bench_live_smoke race live-graph update jobs deriving the next epoch
# against queries pinned to older ones, across the pin/retire
# lifecycle), and the partition-preprocessing thread pools (path
# decomposition and DAG-sketch contraction, exercised by
# test_evolving_incremental's multi-threaded appends). The single-job
# suites (test_engine_parallel/features/convergence, test_wave_kernels)
# check that nothing in a run touches another thread's state.
#
# Usage (from the repo root):
#     ci/tsan.sh               # configure + build + run
#     ci/tsan.sh -R Waves      # extra args are passed through to ctest
#     ci/tsan.sh --if-enabled  # ctest entry point: exit 77 (skip)
#                              # unless DIGRAPH_CI_SANITIZE=1
set -eu

if [ "${1:-}" = "--if-enabled" ]; then
    shift
    if [ "${DIGRAPH_CI_SANITIZE:-0}" != "1" ]; then
        echo "tsan: DIGRAPH_CI_SANITIZE!=1, skipping" >&2
        exit 77
    fi
fi

cd "$(dirname "$0")/.."

cmake -B build-tsan -S . -DDIGRAPH_SANITIZE=thread \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build-tsan -j \
    --target test_engine_parallel test_engine_features \
    test_engine_convergence test_evolving_incremental \
    test_graph_service test_substrate_epochs test_job_manager \
    test_wave_kernels test_multisource concurrent_jobs live_ingest

if [ "$#" -gt 0 ]; then
    ctest --test-dir build-tsan --output-on-failure "$@"
else
    ctest --test-dir build-tsan --output-on-failure \
        -R 'test_engine_(parallel|features|convergence)|test_evolving_incremental|test_graph_service|test_substrate_epochs|test_job_manager|test_wave_kernels|test_multisource|bench_jobs_smoke|bench_live_smoke'
fi
