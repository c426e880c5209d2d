#!/usr/bin/env python3
"""Self-test of the benchmark at its tiny size.

    python3 perfbench/test_perfbench.py

Runs every workload untraced and traced with --short and checks that the
run validates, that every metric BENCHMARK.json names is printed with its
unit (end-to-end values never 0), and that the provenance is complete.
It also checks that a directory holding only BENCHMARK.json and
perfbench/ fails without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run_bench(root, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--short"],
        cwd=root, capture_output=True, text=True, timeout=1200)


class ShortRun(unittest.TestCase):
    def check(self, workload, trace):
        proc = run_bench(ROOT, workload, trace)
        self.assertEqual(proc.returncode, 0,
                         proc.stdout + proc.stderr[-3000:])
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        detail = json.loads(lines[-2])

        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(detail["errors"], [])

        expected = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in expected})
        for m in expected:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])
        if trace:
            self.assertGreater(result["metrics"]["trace.overhead_ratio"]
                               ["value"], 0)

        prov = detail["provenance"]
        self.assertEqual(prov["seed"], 7)
        self.assertGreater(prov["nproc"], 0)
        self.assertTrue(prov["build_type"])
        self.assertTrue(prov["git_sha"] or prov["source_sha256"])
        for g in prov["inputs"]["graphs"]:
            self.assertGreater(g["vertices"], 0)
            self.assertGreater(g["edges"], 0)
            self.assertGreater(g["scale"], 0)

    def test_without_sources_fails_silently(self):
        bare = os.path.join(ROOT, ".bench_work", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            proc = run_bench(bare, SPEC["workloads"][0]["name"], 0)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")
        self.assertIn("no library sources", proc.stderr)


for _w in [w["name"] for w in SPEC["workloads"]]:
    for _t in (0, 1):
        setattr(ShortRun, "test_%s_trace%d" % (_w, _t),
                lambda self, w=_w, t=_t: self.check(w, t))


if __name__ == "__main__":
    unittest.main()
