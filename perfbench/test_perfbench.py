#!/usr/bin/env python3
"""Self-tests of the end-to-end benchmark.

    python3 perfbench/test_perfbench.py

Builds the benchmark binary like run.py does, then checks that the seed fixes the
operation sequence, that every workload completes a short run and prints
every declared metric with its unit, and that explore cycles through more
plan layouts than the layout cache holds.

monitor and explore are implemented but not declared in BENCHMARK.json:
on a loaded host a monitor run now and then fails its loss check, and an
explore run now and then aborts, until the defects described in README.md
are fixed. Their runs here are kept as the reproducers.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

BINARY = None
SPEC = None

# Layers only an undeclared workload calls; each must read above 0 there.
UNDECLARED_LAYERS = {
    "monitor": ("scope.monitor_overhead_us_p50", "net.events_per_query",
                "scope.scene_build_us_p50", "layout.cache_hit_ratio"),
    "explore": ("layout.cold_us_p50", "scope.seek_us_p50", "viz.frame_us_p50",
                "analysis.lint_plan_us_p50", "analysis.lint_trace_us_p50"),
}


def setUpModule():
    global BINARY, SPEC
    BINARY = run.build()
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        SPEC = json.load(f)


def bench(*args):
    return run.run_binary(BINARY, [str(a) for a in args])


def ops(workload, seed, count=12):
    return bench("--workload", workload, "--seed", seed, "--seconds", 1,
                 "--list-ops", count)[:count]


class SeedTest(unittest.TestCase):
    def test_same_seed_same_sequence(self):
        for workload in run.WORKLOADS:
            self.assertEqual(ops(workload, 7), ops(workload, 7), workload)

    def test_different_seeds_different_sequences(self):
        for workload in run.WORKLOADS:
            self.assertNotEqual(ops(workload, 1), ops(workload, 2), workload)

    def test_explore_cycles_past_the_layout_cache(self):
        lines = bench("--workload", "explore", "--seed", 1, "--seconds", 1,
                      "--list-ops", 0)
        distinct = int(lines[-1].split()[-1])
        self.assertGreaterEqual(distinct, 40)


class ShortRunTest(unittest.TestCase):
    def check_run(self, workload, trace, declared):
        """Runs `workload` for one second; `declared` lists the metrics it
        must print, or is None to accept any set with units."""
        lines = bench("--workload", workload, "--seed", 3, "--seconds", 1,
                      "--trace", trace)
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertTrue(result["correct"])
        metrics = result["metrics"]
        for name, metric in metrics.items():
            self.assertEqual(set(metric), {"value", "unit"}, name)
        if declared is not None:
            self.assertEqual(sorted(metrics),
                             sorted(m["name"] for m in declared))
            for m in declared:
                self.assertEqual(metrics[m["name"]]["unit"], m["unit"],
                                 m["name"])
        info = json.loads(lines[-2])["info"]
        self.assertGreater(info["nproc"], 0)
        self.assertEqual(len(info["loadavg"]), 3)
        return metrics

    def test_untraced_runs_print_every_end_to_end_metric(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.check_run(workload, 0, SPEC["end_to_end"])
                for name, metric in metrics.items():
                    self.assertGreater(metric["value"], 0, name)

    def test_traced_runs_print_every_layer_metric(self):
        declared = {w["name"] for w in SPEC["workloads"]}
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                if workload in declared:
                    metrics = self.check_run(workload, 1, SPEC["per_layer"])
                    if workload == "record":
                        self.assertGreater(
                            metrics["profiler.record_us_p50"]["value"], 0)
                    continue
                metrics = self.check_run(workload, 1, None)
                for name in UNDECLARED_LAYERS[workload]:
                    self.assertGreater(metrics[name]["value"], 0, name)


class HygieneTest(unittest.TestCase):
    def test_refuses_to_run_with_a_knob_set(self):
        env = dict(os.environ, STETHO_LAYOUT_CACHE="4")
        proc = subprocess.run(
            [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
             "serve", "--seed", "1", "--seconds", "1"],
            env=env, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("STETHO_LAYOUT_CACHE", proc.stderr)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
