#!/usr/bin/env python3
"""The benchmark's own tests: every workload at smoke scale.

  python3 perfbench/test_smoke.py

Runs run.py --smoke for each workload, untraced and traced, and checks
that each run exits 0, is correct, attempted work, failed none, and
reports exactly the metrics BENCHMARK.json declares, each a finite
number with the declared unit. Also checks that the same seed gives the
same inputs (the same objects and checked operations).
"""

import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("join_sweep", "serve_rw", "snapshot_restart")


def run(workload, trace, seed=7):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    lines = done.stdout.strip().splitlines()
    return done.returncode, json.loads(lines[-1]), lines[:-1], done.stderr


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.contract = json.load(f)

    def check(self, workload, trace):
        code, result, lines, stderr = run(workload, trace)
        failures = [l for l in lines if "failure " in l]
        self.assertEqual(code, 0, "\n".join(failures) or stderr[-2000:])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(result["failed"], 0)
        declared = self.contract["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])
        return result

    def test_untraced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check(workload, 0)

    def test_traced(self):
        expect_active = {
            "join_sweep": ["planner.plan_ms", "core.execute_ms",
                           "planner.cold_regret", "spatial.batch_width"],
            "serve_rw": ["server.ping_ms", "core.probe_ms",
                         "update.publish_ms", "bench.writer_lag_p99_ms"],
            "snapshot_restart": ["io.write_ms", "io.load_ms",
                                 "io.read_verified_ms", "io.file_bytes"],
        }
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.check(workload, 1)["metrics"]
                for name in expect_active[workload] + ["datagen.generate_ms",
                                                       "core.build_ms"]:
                    self.assertGreater(metrics[name]["value"], 0, name)

    def test_same_seed_same_inputs(self):
        def config(workload):
            _, _, lines, _ = run(workload, 0, seed=11)
            line = next(l for l in lines if l.startswith("config "))
            cfg = json.loads(line[len("config "):])
            return cfg["objects"], cfg["users"]

        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(config(workload), config(workload))


if __name__ == "__main__":
    unittest.main()
