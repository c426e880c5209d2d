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
#   lostroot  a store whose root version (v1) carries an epoch (v2)
#             but has lost a topo shard: --jobs wcc and --algo wcc each
#             exit 1 naming version 1 and the store, and write nothing
#             (no cold-start root that would orphan v2); with the shard
#             restored, --jobs wcc warm-starts on epoch version 2
#
# Usage: ci/cli_jobs.sh /path/to/digraph_cli MODE
#   MODE: list|empty|baseline|poison|lostroot
# Exit codes: 0 ok, 1 check failure.
set -u

USAGE="usage: cli_jobs.sh /path/to/digraph_cli list|empty|baseline|poison|\
lostroot"
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
lostroot)
    WORK=$(mktemp -d) || { echo "cli_jobs: mktemp failed" >&2; exit 1; }
    trap 'rm -rf "$WORK"' EXIT
    STORE="$WORK/store"
    awk 'BEGIN { for (i = 0; i < 50; ++i) print i, (i * 31 + 7) % 89, 1 }' \
        > "$WORK/batch.txt"
    printf 'wcc\nupdate %s\n' "$WORK/batch.txt" > "$WORK/jobs.txt"
    OUT=$("$CLI" --dataset dblp --scale 0.05 --serve "$WORK/jobs.txt" \
        --store "$STORE" 2>&1)
    STATUS=$?
    [ "$STATUS" -eq 0 ] || fail "setup: exit status $STATUS, expected 0"
    printf '%s\n' "$OUT" | grep -q "epochs +1" ||
        fail "setup: the update committed no epoch"
    mv "$STORE/topo.p0.v1.shard" "$WORK/" ||
        fail "setup: the root has no topo.p0.v1.shard"
    BEFORE=$(cd "$STORE" && cksum ./*)
    for RUN in "--jobs wcc" "--algo wcc"; do
        # $RUN is left unquoted to split into the flag and its value.
        OUT=$("$CLI" --dataset dblp --scale 0.05 $RUN --store "$STORE" 2>&1)
        STATUS=$?
        [ "$STATUS" -eq 1 ] ||
            fail "$RUN: exit status $STATUS, expected 1"
        printf '%s\n' "$OUT" | grep -q "version 1 in '$STORE'" ||
            fail "$RUN: missing diagnostic naming version 1 and the store"
        [ "$(cd "$STORE" && cksum ./*)" = "$BEFORE" ] ||
            fail "$RUN: the store changed"
    done
    mv "$WORK/topo.p0.v1.shard" "$STORE/"
    OUT=$("$CLI" --dataset dblp --scale 0.05 --jobs wcc --store "$STORE" 2>&1)
    STATUS=$?
    [ "$STATUS" -eq 0 ] || fail "restored: exit status $STATUS, expected 0"
    printf '%s\n' "$OUT" | grep -q "epoch version 2 " ||
        fail "restored: did not warm-start on epoch version 2"
    ;;
*)
    echo "cli_jobs: unknown mode '$MODE'" >&2
    exit 1
    ;;
esac
echo "cli_jobs: $MODE ok"
