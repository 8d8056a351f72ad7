#!/usr/bin/env python3
"""The benchmark's own test: smoke mode of the real command, every workload.

    python3 perfbench/test_smoke.py        (from the repository root)

Runs `perfbench/run.py --smoke` (tiny storms, few passes) for each workload
in BENCHMARK.json with --trace 0 and --trace 1, and checks that the result
line has the agreed shape, that every output check passed, and that every
printed metric name and unit matches BENCHMARK.json. Also checks the shape
of BENCHMARK.json itself.
"""
import json
import math
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class BenchmarkSpec(unittest.TestCase):
    def test_shape(self):
        spec = load_spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertEqual(spec["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(spec["paths"], ["perfbench"])
        self.assertIsInstance(spec["run_seconds"], int)
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        names = []
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertRegex(w["name"], NAME)
            self.assertTrue(0 < len(w["why"]) <= 200 and "\n" not in w["why"])
            names.append(w["name"])
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertIn(m["better"], ("higher", "lower"))
            self.assertTrue(0 < m["bound"] <= 0.25)
            names.append(m["name"])
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            self.assertIn(m["better"], ("higher", "lower"))
            names.append(m["name"])
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
        self.assertEqual(len(names), len(set(names)), "names must be unique")
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in spec["end_to_end"]))


class SmokeRuns(unittest.TestCase):
    def run_smoke(self, workload, trace):
        proc = subprocess.run(
            [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
             "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=900)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_every_workload_prints_the_declared_metrics(self):
        spec = load_spec()
        for w in spec["workloads"]:
            for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
                with self.subTest(workload=w["name"], trace=trace):
                    result = self.run_smoke(w["name"], trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertIs(result["correct"], True)
                    self.assertIsInstance(result["attempted"], int)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    printed = result["metrics"]
                    self.assertEqual(list(printed), [m["name"] for m in declared])
                    for m in declared:
                        got = printed[m["name"]]
                        self.assertEqual(set(got), {"value", "unit"})
                        self.assertEqual(got["unit"], m["unit"], m["name"])
                        self.assertIsInstance(got["value"], (int, float))
                        self.assertTrue(math.isfinite(got["value"]), m["name"])
                        if trace == 0:
                            self.assertNotEqual(got["value"], 0, m["name"])


if __name__ == "__main__":
    unittest.main()
