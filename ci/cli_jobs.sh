#!/bin/sh
# Check the CLI's --jobs list parsing end to end.
#
# --jobs is an inline --serve script: its comma-separated specs are
# trimmed, empty entries are skipped, and what is left becomes the
# session's request list, one "--- job SPEC ..." report line per job.
#
#   list   a padded list with doubled and trailing commas runs exactly
#          its two jobs: one "--- job" line for sssp:0, one for wcc,
#          and no other
#   empty  a list of nothing but separators exits 1 with "no job specs"
#
# Usage: ci/cli_jobs.sh /path/to/digraph_cli list|empty
# Exit codes: 0 ok, 1 check failure.
set -u

CLI="${1:?usage: cli_jobs.sh /path/to/digraph_cli list|empty}"
MODE="${2:?usage: cli_jobs.sh /path/to/digraph_cli list|empty}"

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
*)
    echo "cli_jobs: unknown mode '$MODE'" >&2
    exit 1
    ;;
esac
echo "cli_jobs: $MODE ok"
