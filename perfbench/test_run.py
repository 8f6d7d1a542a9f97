"""Tests of the benchmark's own checker.

Run from the root of a checkout:

    python3 -m unittest discover -s perfbench
"""

import copy
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

SMALL = bench.Invocation(base_group="Z2")  # order-8 table, a few ms


class CheckerTest(unittest.TestCase):
    def test_correct_program_passes(self):
        o = bench.invoke(SMALL, seed=7)
        self.assertFalse(o.failed)
        self.assertFalse(o.wrong)

    def test_corrupted_multiplication_counts_as_failed(self):
        env = bench._child_env()
        env["THETA_JORDAN_CORRUPT_MUL"] = "1"
        o = bench.invoke(SMALL, seed=7, env=env)
        self.assertTrue(o.failed)

    def test_wrong_values_are_caught(self):
        doc = json.loads(bench.invoke(SMALL, seed=7).stdout)
        for path, value in [
            (("entries", 0, "min_abelian_index"), 1),
            (("entries", 0, "max_abelian_order"), 8),
            (("entries", 0, "method"), "structural"),
        ]:
            bad = copy.deepcopy(doc)
            node = bad["reports"][0]
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
            self.assertTrue(bench.check_report(json.dumps(bad), SMALL, 7), path)
        self.assertTrue(bench.check_report(json.dumps(doc), SMALL, 8))
        self.assertEqual(bench.check_report(json.dumps(doc), SMALL, 7), [])

    def test_expected_certificates(self):
        certs = {r["manifold_class"]: r["threshold_certificates"]
                 for r in bench.expected_reports(bench.Invocation())}
        self.assertEqual([c["n"] for c in certs[0]], [2, 6, 12, 1_000_002])
        self.assertEqual([c["n"] for c in certs[1]], [3, 7, 11, 1_000_001])
        self.assertEqual([c["method"] for c in certs[1]],
                         ["both", "both", "structural", "structural"])

    def test_expected_calls(self):
        self.assertEqual(
            bench.expected_calls(bench.WORKLOADS["default"]),
            {"cli.main": 1, "bundlemodel.render": 1,
             "bundlemodel.verify_level": 6, "bundlemodel.jordan_certificate": 8},
        )
        want = bench.expected_calls(bench.WORKLOADS["structural-1000"])
        self.assertEqual(want["bundlemodel.verify_level"], 1000)
        self.assertEqual(want["heis.to_concrete"], 0)

    def test_every_invocation_is_repeated(self):
        # Even when no second round fits in --seconds, one is run, so the
        # byte-identical check always takes place.
        result = bench.run_untraced(bench.Workload("", (SMALL,)), seed=7, seconds=0)
        self.assertEqual((result["attempted"], result["failed"]), (2, 0))

    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(Path(bench.__file__).parent, Path(tmp, bench.BENCH_DIR))
            shutil.copy(bench.BENCHMARK_JSON, tmp)
            proc = subprocess.run(
                [sys.executable, f"{bench.BENCH_DIR}/run.py", "--workload",
                 "default", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
