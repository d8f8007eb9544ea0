"""The benchmark's own tests: a smoke run of each workload at minimal size,
the traced runs' metric set, a deliberately wrong verdict failing the run,
and a checkout without the sources failing without a result.

    python3 -m unittest discover -s perfbench/tests -v    # from the repository root
"""
import json
import math
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def run(*args, cwd=ROOT, run_py=RUN):
    done = subprocess.run([sys.executable, run_py, *args], cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith('{"correct"') else None
    return done.returncode, result, done.stderr


def smoke(workload, trace="0", *extra):
    return run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace,
               "--smoke", *extra)


class SmokeRuns(unittest.TestCase):
    def check(self, workload):
        code, result, err = smoke(workload)
        self.assertEqual(code, 0, err[-2000:])
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), set(END_TO_END))
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], END_TO_END[name], name)
            self.assertTrue(math.isfinite(metric["value"]), name)
            self.assertGreater(metric["value"], 0, name)

    def test_lookup_mix(self):
        self.check("lookup_mix")

    def test_live_week(self):
        self.check("live_week")

    def test_batch_week(self):
        self.check("batch_week")

    def check_traced(self, workload):
        code, result, err = smoke(workload, "1")
        self.assertEqual(code, 0, err[-2000:])
        self.assertTrue(result["correct"])
        self.assertEqual(set(result["metrics"]), set(PER_LAYER))
        return result["metrics"]

    def test_traced_batch_week_reports_every_layer_metric(self):
        metrics = self.check_traced("batch_week")
        self.assertGreater(metrics["pipeline.collect.insert_ms"]["value"], 0)
        self.assertEqual(metrics["analytics.build_ms"]["value"], 0)

    def test_traced_live_week_reports_every_layer_metric(self):
        metrics = self.check_traced("live_week")
        self.assertGreater(metrics["ingest.window.merge_p50_ms"]["value"], 0)
        self.assertGreater(metrics["analytics.build_ms"]["value"], 0)
        self.assertGreater(metrics["serve.reload_lag_ms"]["value"], 0)


class Verification(unittest.TestCase):
    def check_wrong_verdict_fails(self, workload):
        code, result, _ = smoke(workload, "0", "--fault", "wrong-verdict")
        self.assertNotEqual(code, 0)
        self.assertIsNotNone(result)
        self.assertFalse(result["correct"])

    def test_wrong_verdict_fails_lookup_mix(self):
        self.check_wrong_verdict_fails("lookup_mix")

    def test_wrong_verdict_fails_live_week(self):
        # Epochs the daemon has not published yet must not vouch for a reply.
        self.check_wrong_verdict_fails("live_week")

    def test_checkout_without_sources_fails_without_result(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            code, result, _ = run("--workload", "lookup_mix", "--seed", "1", "--seconds", "1",
                                  "--trace", "0", cwd=bare,
                                  run_py=os.path.join(bare, "perfbench", "run.py"))
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
