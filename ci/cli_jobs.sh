#!/bin/sh
# Check the CLI's --jobs list parsing and its digraph-only flags end to
# end.
#
# --jobs is an inline --serve script: its comma-separated specs are
# trimmed, empty entries are skipped, and what is left becomes the
# session's request list, one "--- job SPEC ..." report line per job.
#
#   list      a padded list with doubled and trailing commas runs
#             exactly its two jobs: one "--- job" line for sssp:0, one
#             for wcc, and no other
#   empty     a list of nothing but separators exits 1 with "no job
#             specs"
#   baseline  each digraph-only flag (--jobs, --serve, --lanes,
#             --evolve-batches, --verify) given to a baseline system
#             (gunrock, groute, sequential) exits 1 with a diagnostic
#             naming the flag and the system
#   poison    a session with a fault plan and a durable store rejects
#             its batched lane job at admission: the run exits 0 with
#             "--- job" lines for sssp:0 and wcc and a REJECTED line for
#             the ppr spec naming the restriction; a restart on the same
#             store runs no ppr job
#
# Usage: ci/cli_jobs.sh /path/to/digraph_cli list|empty|baseline|poison
# Exit codes: 0 ok, 1 check failure.
set -u

USAGE="usage: cli_jobs.sh /path/to/digraph_cli list|empty|baseline|poison"
CLI="${1:?$USAGE}"
MODE="${2:?$USAGE}"

fail() {
    echo "cli_jobs: $1" >&2
    printf '%s\n' "$OUT" >&2
    exit 1
}

case "$MODE" in
list)
    OUT=$("$CLI" --dataset dblp --scale 0.05 --jobs " sssp:0 ,, wcc," 2>&1)
    STATUS=$?
    [ "$STATUS" -eq 0 ] || fail "exit status $STATUS, expected 0"
    JOBS=$(printf '%s\n' "$OUT" | sed -n 's/^--- job \([^ ]*\) .*/\1/p' |
        sort | tr '\n' ' ')
    [ "$JOBS" = "sssp:0 wcc " ] ||
        fail "job lines for '$JOBS', expected exactly sssp:0 and wcc"
    ;;
empty)
    OUT=$("$CLI" --dataset dblp --scale 0.05 --jobs " , ," 2>&1)
    STATUS=$?
    [ "$STATUS" -eq 1 ] || fail "exit status $STATUS, expected 1"
    printf '%s\n' "$OUT" | grep -q "no job specs" ||
        fail "missing 'no job specs' diagnostic"
    ;;
baseline)
    # expect_rejected SYSTEM FLAG [ARGS...]: exit 1, and the diagnostic
    # names FLAG and SYSTEM.
    expect_rejected() {
        SYSTEM="$1"
        FLAG="$2"
        shift 2
        OUT=$("$CLI" --dataset dblp --scale 0.05 --system "$SYSTEM" \
            "$@" 2>&1)
        STATUS=$?
        [ "$STATUS" -eq 1 ] ||
            fail "$SYSTEM $FLAG: exit status $STATUS, expected 1"
        printf '%s\n' "$OUT" |
            grep -q -- "$FLAG requires a digraph system.*'$SYSTEM'" ||
            fail "$SYSTEM $FLAG: missing diagnostic naming $FLAG and $SYSTEM"
    }
    expect_rejected gunrock --jobs --jobs "sssp:0,wcc"
    expect_rejected sequential --serve --serve jobs.txt
    expect_rejected groute --lanes --algo ppr --lanes 1,2,3
    expect_rejected sequential --evolve-batches --evolve-batches 2
    expect_rejected gunrock --verify --verify
    ;;
poison)
    STORE=$(mktemp -d) || { echo "cli_jobs: mktemp failed" >&2; exit 1; }
    trap 'rm -rf "$STORE"' EXIT
    OUT=$("$CLI" --dataset dblp --scale 0.05 --jobs "sssp:0,ppr:0+1+2,wcc" \
        --faults seed=1,xfer=0.01 --store "$STORE" 2>&1)
    STATUS=$?
    [ "$STATUS" -eq 0 ] || fail "exit status $STATUS, expected 0"
    JOBS=$(printf '%s\n' "$OUT" | sed -n 's/^--- job \([^ ]*\) tenant=.*/\1/p' |
        sort | tr '\n' ' ')
    [ "$JOBS" = "sssp:0 wcc " ] ||
        fail "job lines for '$JOBS', expected exactly sssp:0 and wcc"
    REASON="fault tolerance or a durable store"
    printf '%s\n' "$OUT" | grep -q "^--- job ppr:0+1+2 REJECTED: .*$REASON" ||
        fail "missing REJECTED line naming the lane restriction"
    OUT=$("$CLI" --dataset dblp --scale 0.05 --jobs wcc \
        --faults seed=1,xfer=0.01 --store "$STORE" 2>&1)
    STATUS=$?
    [ "$STATUS" -eq 0 ] || fail "restart: exit status $STATUS, expected 0"
    printf '%s\n' "$OUT" | grep -q "^--- job wcc " ||
        fail "restart: missing the wcc job line"
    if printf '%s\n' "$OUT" | grep -q "ppr"; then
        fail "restart: the rejected ppr job came back"
    fi
    ;;
*)
    echo "cli_jobs: unknown mode '$MODE'" >&2
    exit 1
    ;;
esac
echo "cli_jobs: $MODE ok"
