#!/usr/bin/env python3
"""Self-test of the repository benchmark, on reduced sizes.

    python3 perfbench/test/test_bench.py

For every workload it checks that every declared metric prints with its
unit, that exact metrics (simulated instructions, cycles, inv+down, minor
words, checker states) repeat bit-for-bit at one seed, and that a second
seed changes the simulated results but still verifies. About a minute.
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import run  # noqa: E402

SEED_A, SEED_B = 0, 7
# The checker's model has no inputs, so a seed cannot change it.
SEEDLESS = {"check-warden"}


class Workload:
    """Runs of one workload, shared by the tests below."""

    cache = {}

    @classmethod
    def get(cls, name, seed, trace=False, again=False):
        key = (name, seed, trace, again)
        if key not in cls.cache:
            cls.cache[key] = run.run_workload(name, seed, 0, trace, small=True)
        return cls.cache[key]


class TestBenchmark(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = run.load_spec()
        run.build()

    def names(self):
        return [w["name"] for w in self.spec["workloads"]]

    def test_every_metric_prints_with_its_unit(self):
        declared = {m["name"] for m in self.spec["end_to_end"] + self.spec["per_layer"]}
        for name in self.names():
            for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
                report, _, raw = Workload.get(name, SEED_A, trace)
                self.assertLessEqual(set(raw["metrics"]), declared, name)
                metrics = run.select(self.spec, raw, trace)
                for m in self.spec[kind]:
                    with self.subTest(workload=name, metric=m["name"]):
                        self.assertEqual(metrics[m["name"]]["unit"], m["unit"])
                        self.assertIsInstance(metrics[m["name"]]["value"], (int, float))
                for m in self.spec["end_to_end"]:
                    if not trace:
                        self.assertGreater(metrics[m["name"]]["value"], 0, m["name"])
                        self.assertTrue(any(line.lstrip().startswith(m["name"] + " ")
                                            for line in report), m["name"])

    def test_operations_verify(self):
        for name in self.names():
            for seed in (SEED_A, SEED_B):
                _, _, raw = Workload.get(name, seed)
                with self.subTest(workload=name, seed=seed):
                    self.assertTrue(raw["correct"])
                    self.assertGreaterEqual(raw["attempted"], 1)
                    self.assertEqual(raw["failed"], 0)

    def test_exact_metrics_repeat_at_one_seed(self):
        for name in self.names():
            _, first, _ = Workload.get(name, SEED_A)
            _, second, _ = Workload.get(name, SEED_A, again=True)
            with self.subTest(workload=name):
                self.assertTrue(first)
                self.assertEqual(first, second)

    def test_another_seed_changes_simulated_results(self):
        for name in self.names():
            _, a, _ = Workload.get(name, SEED_A)
            _, b, _ = Workload.get(name, SEED_B)
            with self.subTest(workload=name):
                self.assertEqual(a.keys(), b.keys())
                if name in SEEDLESS:
                    self.assertEqual(a, b)
                else:
                    self.assertNotEqual(
                        {k: v for k, v in a.items() if k != "pass.minor_words"},
                        {k: v for k, v in b.items() if k != "pass.minor_words"})


if __name__ == "__main__":
    unittest.main(verbosity=2)
