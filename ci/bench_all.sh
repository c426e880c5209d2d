#!/bin/sh
# Regenerate every paper figure and table in one pass.
#
# Builds and runs, in build/, paper_figures (Figs 6, 7, 9-13 and 15
# from one shared system x algorithm x dataset grid) and the remaining
# paper binaries (Table 1, Figs 2, 8, 14, 16 and 17, and the
# feature ablation) at DIGRAPH_BENCH_SCALE (default 0.4), then writes two
# files at the repo root:
#
#   BENCH_figures.json  provenance (git revision, build type, nproc,
#                       scale), each binary's wall seconds and the total
#   BENCH_figures.txt   every table whose cells come from simulated
#                       cycles, counts or traffic. Host-wall cells are
#                       left out (Fig 8, Fig 9's preprocess_s, Fig 17's
#                       preprocess_s and total_s), so two runs on one
#                       tree write the same bytes and a changed paper
#                       number shows up as a diff.
#
# An "eight_binaries_comparison" entry already in BENCH_figures.json
# (paper_figures' wall against the per-figure binaries it replaced) is
# kept.
#
# Usage (from anywhere): ci/bench_all.sh
# Exit codes: 0 ok, 1 a build or a binary failed.
set -eu

cd "$(dirname "$0")/.."

SCALE="${DIGRAPH_BENCH_SCALE:-0.4}"
export DIGRAPH_BENCH_SCALE="$SCALE"
BINARIES="paper_figures table1_datasets fig02_motivation fig08_preprocessing
fig14_bidirectional fig16_scalability fig17_total_time ablation_features"

cmake -B build -S . > /dev/null
cmake --build build -j "$(nproc)" --target $BINARIES

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

now() { date +%s.%N; }
for b in $BINARIES; do
    echo "bench_all: $b" >&2
    START=$(now)
    "./build/bench/$b" > "$WORK/$b.out" ||
        { echo "bench_all: $b failed" >&2; exit 1; }
    echo "$b $START $(now)" >> "$WORK/walls"
done

BUILD_TYPE=$(sed -n 's/^CMAKE_BUILD_TYPE:STRING=//p' build/CMakeCache.txt)
# An empty cache entry builds with CMakeLists.txt's default.
[ -n "$BUILD_TYPE" ] || BUILD_TYPE=RelWithDebInfo

python3 - "$WORK" "$BINARIES" "$SCALE" "$BUILD_TYPE" \
    "$(git describe --always --dirty --abbrev=12)" "$(nproc)" <<'EOF'
import json, os, re, sys

work, binaries, scale, build_type, revision, nproc = sys.argv[1:]
binaries = binaries.split()

# Host-wall tables (by title prefix) and host-wall columns per table.
HOST_WALL_TABLES = ("Fig 8 ",)
HOST_WALL_COLUMNS = {"Fig 9 ": {"preprocess_s"},
                     "Fig 17 ": {"preprocess_s", "total_s"}}


def tables(text):
    """The "== title ==" blocks a bench binary prints, one list of lines
    each (title, header, rows)."""
    out, cur = [], None
    for line in text.splitlines():
        if line.startswith("== "):
            cur = [line]
            out.append(cur)
        elif cur is not None and line.strip():
            cur.append(line)
        else:
            cur = None
    return out


def drop_columns(block, names):
    """Cut the named columns out of a fixed-width table: each column
    starts where its header name does."""
    cols = list(re.finditer(r"\S+(?: \S+)*", block[1]))
    starts = [m.start() for m in cols] + [None]
    keep = [(starts[i], starts[i + 1]) for i, m in enumerate(cols)
            if m.group() not in names]
    return [block[0]] + ["".join(line[s:e] for s, e in keep).rstrip()
                         for line in block[1:]]


kept = []
for b in binaries:
    with open(os.path.join(work, b + ".out")) as f:
        for block in tables(f.read()):
            title = block[0][3:]
            if title.startswith(HOST_WALL_TABLES):
                continue
            for prefix, names in HOST_WALL_COLUMNS.items():
                if title.startswith(prefix):
                    block = drop_columns(block, names)
            kept.append("\n".join(line.rstrip() for line in block))
with open("BENCH_figures.txt", "w") as f:
    f.write("\n\n".join(kept) + "\n")

walls = {}
with open(os.path.join(work, "walls")) as f:
    for line in f:
        name, start, end = line.split()
        walls[name] = round(float(end) - float(start), 2)
result = {
    "benchmark": "paper_figures",
    "command": "ci/bench_all.sh",
    "provenance": {"revision": revision, "build_type": build_type,
                   "nproc": int(nproc), "scale": float(scale)},
    "wall_seconds": walls,
    "total_wall_seconds": round(sum(walls.values()), 2),
    "tables": "BENCH_figures.txt",
}
if os.path.exists("BENCH_figures.json"):
    with open("BENCH_figures.json") as f:
        previous = json.load(f)
    if "eight_binaries_comparison" in previous:
        result["eight_binaries_comparison"] = \
            previous["eight_binaries_comparison"]
with open("BENCH_figures.json", "w") as f:
    json.dump(result, f, indent=2)
    f.write("\n")
print(f"bench_all: {len(kept)} tables in BENCH_figures.txt, "
      f"total {result['total_wall_seconds']} s", file=sys.stderr)
EOF
