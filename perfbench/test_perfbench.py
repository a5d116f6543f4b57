"""Tests of the benchmark itself (not part of the braidcalc suite).

    python3 -m pytest perfbench          # or: python3 -m unittest discover perfbench

They run every workload at the tiny size, so they take about a minute.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def bench(workload, trace, env=None, extra=()):
    """Runs run.py at the tiny size; returns (result object, stdout)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny", *extra],
        cwd=ROOT, capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


class SmokeTest(unittest.TestCase):
    def test_every_metric_is_emitted(self):
        for workload in run.WORKLOADS:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result, _ = bench(workload, trace)
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    for metric in SPEC[section]:
                        got = result["metrics"][metric["name"]]
                        self.assertEqual(got["unit"], metric["unit"])
                        self.assertIsInstance(got["value"], (int, float))

    def test_traced_counts_repeat(self):
        first, _ = bench("rack-tower", 1)
        second, _ = bench("rack-tower", 1)
        for metric in SPEC["per_layer"]:
            if metric["unit"] == "count" and metric["name"] != "trace.spans":
                self.assertEqual(first["metrics"][metric["name"]],
                                 second["metrics"][metric["name"]], metric["name"])

    def test_runs_without_gmpy2_and_pytest_benchmark(self):
        with tempfile.TemporaryDirectory() as stubs:
            for name in ("gmpy2", "pytest_benchmark"):
                with open(os.path.join(stubs, name + ".py"), "w") as fh:
                    fh.write("raise ImportError('blocked for this test')\n")
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (stubs, env.get("PYTHONPATH")) if p)
            result, out = bench("cli-cache", 0, env=env)
        self.assertTrue(result["correct"])
        self.assertIn('"backend": "fractions"', out)

    def test_steadiness_mode(self):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--steady", "2",
             "--workload", "enveloping", "--seconds", "1", "--size", "tiny"],
            cwd=ROOT, capture_output=True, text=True, timeout=300)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        for metric in SPEC["end_to_end"]:
            self.assertRegex(proc.stdout, r"\n%s +[0-9.]+ +[0-9.]+ +[0-9.]+ +[0-9.]+"
                             % metric["name"])

    def test_refuses_without_sources(self):
        with tempfile.TemporaryDirectory() as bare:
            os.mkdir(os.path.join(bare, "perfbench"))
            for name in os.listdir(HERE):
                if name.endswith((".py", ".json")):
                    with open(os.path.join(HERE, name), "rb") as src, \
                            open(os.path.join(bare, "perfbench", name), "wb") as dst:
                        dst.write(src.read())
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "rack-tower",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


class WrongReferenceTest(unittest.TestCase):
    """A deliberately wrong reference must make the run report a failure."""

    def wrong(self, workload, corrupt):
        result = run.run_once(workload, 3, 1.0, 0, "tiny", refs_override=corrupt)
        self.assertFalse(result["correct"])

    def test_rack_tower(self):
        def corrupt(refs):
            refs["nichols_dims"] = list(refs["nichols_dims"])
            refs["nichols_dims"][5] += 1
            return refs
        self.wrong("rack-tower", corrupt)

    def test_cyclo_tower(self):
        def corrupt(refs):
            refs["dims"] = [d + (k == 4) for k, d in enumerate(refs["dims"])]
            return refs
        self.wrong("cyclo-tower", corrupt)

    def test_enveloping(self):
        def corrupt(refs):
            refs["sl2_gr_dims"] = [d + 1 for d in refs["sl2_gr_dims"]]
            return refs
        self.wrong("enveloping", corrupt)

    def test_cli_cache(self):
        def corrupt(refs):
            ranks = refs["flip.job"]["symmetrizer_ranks"]
            refs["flip.job"]["symmetrizer_ranks"] = ranks[:2] + [ranks[2] + 1] + ranks[3:]
            return refs
        self.wrong("cli-cache", corrupt)


class OracleTest(unittest.TestCase):
    def test_reference_file_matches_the_reference_command(self):
        self.assertEqual(oracle.main(["rack"]), 0)

    def test_direct_symmetrizer_on_known_algebras(self):
        # flip of dimension 3: the symmetric algebra; scalar z in Q(zeta_4):
        # the exterior-like truncation of the README example
        flip = [[a, b, b, a, {0: 1}] for a in range(3) for b in range(3)]
        self.assertEqual(oracle.symmetrizer_ranks(flip, 3, 2, 4), [1, 3, 6, 10, 15])
        scalar = [[a, b, a, b, {1: 1}] for a in range(2) for b in range(2)]
        self.assertEqual(oracle.symmetrizer_ranks(scalar, 2, 4, 5), [1, 2, 4, 8, 0, 0])


if __name__ == "__main__":
    unittest.main()
