#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the perfbench binary from the checkout's sources (into
.bench_build/perfbench), generates the workload's inputs from the seed
(into .bench_work/), runs and validates the workload, and prints two JSON
lines on stdout: first the provenance and diagnostics, last the result
with every end-to-end metric (--trace 0) or every per-layer metric
(--trace 1) named in BENCHMARK.json. Build output goes to stderr.

Exit codes: 0 when every operation succeeded and validated; 1 when some
failed (the result line is still printed, with "correct": false); 2 when
nothing could be measured (no sources, build failure, crash), in which
case no result line is printed.

--short runs the tiny self-test size (see test_perfbench.py).
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
BUILD_TYPE = "RelWithDebInfo"
# A run must end within 180 s; leave room for generation and checks.
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no library sources under src/ to build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("build step failed: " + " ".join(cmd))


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """SHA-256 over the library and benchmark sources, for checkouts that
    are not git repositories."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def run_binary(args, capture):
    try:
        return subprocess.run(args, stdout=subprocess.PIPE if capture else
                              sys.stderr, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("timed out: " + " ".join(args))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true")
    args = parser.parse_args()

    try:
        build()
        tiny = ["--tiny"] if args.short else []
        work = os.path.join(WORK_ROOT, "%s-seed%d-trace%d%s" % (
            args.workload, args.seed, args.trace,
            "-short" if args.short else ""))
        shutil.rmtree(work, ignore_errors=True)
        inputs = os.path.join(work, "inputs")
        gen = run_binary([BINARY, "gen", "--workload", args.workload,
                          "--seed", str(args.seed), "--out", inputs] + tiny,
                         capture=False)
        if gen.returncode:
            raise BenchError("input generation failed")
        proc = run_binary([BINARY, "run", "--inputs", inputs, "--work", work,
                           "--seconds", repr(args.seconds),
                           "--trace", str(args.trace)], capture=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            raise BenchError("benchmark binary crashed (exit %d)"
                             % proc.returncode)
        raw = json.loads(lines[-1])
        with open(os.path.join(inputs, "inputs.json")) as f:
            input_info = json.load(f)
    except (BenchError, OSError, ValueError, KeyError) as err:
        log("perfbench:", err)
        return 2

    problems = []
    metrics = {}
    for name, unit in expected_metrics(args.trace):
        got = raw["metrics"].get(name)
        if got is None:
            problems.append("metric %s missing" % name)
        elif got["unit"] != unit:
            problems.append("metric %s has unit %s, expected %s"
                            % (name, got["unit"], unit))
        else:
            metrics[name] = {"value": got["value"], "unit": unit}
    failed = int(raw["failed"])
    correct = proc.returncode == 0 and failed == 0 and not problems

    detail = {
        "provenance": {
            "git_sha": git_sha(),
            "source_sha256": source_digest(),
            "build_type": BUILD_TYPE,
            "nproc": os.cpu_count(),
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "short": args.short,
            "inputs": input_info,
        },
        "rounds": raw["rounds"],
        "error_rate": failed / max(1, int(raw["attempted"])),
        "errors": raw["errors"] + problems,
    }
    with open(os.path.join(work, "result.json"), "w") as f:
        json.dump({"detail": detail, "raw": raw}, f, indent=1)
    shutil.rmtree(inputs, ignore_errors=True)

    print(json.dumps(detail))
    print(json.dumps({"correct": correct, "attempted": int(raw["attempted"]),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
