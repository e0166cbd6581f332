#!/usr/bin/env python3
"""Tests of the benchmark itself (not of the library).

    python3 perfbench/test_perfbench.py

Runs perfbench/run.py (building it on first use) with one-second runs and
checks the output contract: metric names and units, counter-derived
metrics that repeat exactly for a seed, seeds that change the inputs but
not the metric names, and the refusals (library environment overrides,
missing library sources).
"""
import json
import os
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
# Metrics derived from counters of the deterministic reference solves:
# identical for identical seeds.
COUNTER_RE = re.compile(
    r"solver\.iters_mean\..*|solver\.barriers_per_iter\..*"
    r"|kernel\..*_per_system|solver\.true_resid_max")


def run(workload, seed, trace, seconds=1, env=None, cwd=ROOT,
        script=HERE / "run.py"):
    res = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=900)
    return res


def result(res):
    lines = res.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines


class Contract(unittest.TestCase):
    runs = {}

    @classmethod
    def get(cls, workload, seed, trace):
        key = (workload, seed, trace)
        if key not in cls.runs:
            res = run(workload, seed, trace)
            if res.returncode != 0:
                raise AssertionError(
                    f"{key} exited {res.returncode}: {res.stderr[-2000:]}")
            cls.runs[key] = result(res)
        return cls.runs[key]

    def test_spec_names_match_grammar(self):
        for section in ("end_to_end", "per_layer"):
            for m in SPEC[section]:
                self.assertTrue(NAME_RE.fullmatch(m["name"]), m["name"])

    def test_every_metric_printed_with_unit(self):
        for w in WORKLOADS:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w, trace=trace):
                    out, lines = self.get(w, 7, trace)
                    self.assertEqual(
                        set(out), {"correct", "attempted", "failed",
                                   "metrics"})
                    self.assertTrue(out["correct"])
                    self.assertGreaterEqual(out["attempted"], 1)
                    self.assertEqual(out["failed"], 0)
                    want = {m["name"]: m["unit"] for m in SPEC[section]}
                    self.assertEqual(set(out["metrics"]), set(want))
                    table = "\n".join(lines[:-1])
                    for name, unit in want.items():
                        self.assertTrue(NAME_RE.fullmatch(name), name)
                        self.assertEqual(out["metrics"][name]["unit"], unit)
                        self.assertRegex(
                            table, rf"(?m)^{re.escape(name)} +\S+ "
                                   rf"{re.escape(unit)}$")
                    # failed_frac is printed in the table of every run.
                    self.assertRegex(table, r"(?m)^failed_frac +0 1$")

    def test_counters_repeat_for_a_seed(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a, _ = self.get(w, 7, 1)
                b = result(run(w, 7, 1))[0]
                names = [n for n in a["metrics"] if COUNTER_RE.fullmatch(n)]
                self.assertTrue(names)
                for n in names:
                    self.assertEqual(a["metrics"][n]["value"],
                                     b["metrics"][n]["value"], n)
        a, _ = self.get("pele_newton", 7, 0)
        b = result(run("pele_newton", 7, 0))[0]
        self.assertEqual(a["metrics"]["modeled_us_per_system"]["value"],
                         b["metrics"]["modeled_us_per_system"]["value"])

    def test_seed_changes_inputs_not_names(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a, _ = self.get(w, 7, 1)
                b, _ = self.get(w, 8, 1)
                self.assertEqual(set(a["metrics"]), set(b["metrics"]))
                self.assertNotEqual(
                    a["metrics"]["solver.true_resid_max"]["value"],
                    b["metrics"]["solver.true_resid_max"]["value"])

    def test_refuses_library_env_overrides(self):
        for var in ("BATCHLIN_SHARDS", "BATCHLIN_LAUNCH_MODE",
                    "BATCHLIN_STORAGE", "BATCHLIN_SERVE_STAGE_PROBE"):
            with self.subTest(var=var):
                env = dict(os.environ, **{var: "1"})
                res = run("serve_mixed", 1, 0, env=env)
                self.assertNotEqual(res.returncode, 0)
                self.assertIn(var, res.stderr)
                self.assertNotIn('"metrics"', res.stdout)

    def test_fails_without_library_sources(self):
        bare = ROOT / ".bench_build" / "test-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            res = run("pele_newton", 1, 0, cwd=bare,
                      script=bare / "perfbench" / "run.py")
            self.assertNotEqual(res.returncode, 0)
            self.assertNotIn('"metrics"', res.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
