"""Self-test of the benchmark harness.  Run from the repository root:

    python3 bench/check_bench.py

It shows that a planted fault counts as a failed op, that the harness refuses
to run without the program's sources, that the printed metric names match
BENCHMARK.json, that warm-up work counts repeat exactly for a seed, and that
each workload stresses the layer it was chosen for.  The runs are short, so
the timings they print mean nothing; only the structure is checked.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(BENCH))
import run  # noqa: E402  (the harness itself, imported as a library)

run.load_program()
import tracer  # noqa: E402
import workloads  # noqa: E402


def bench(workload: str, trace: int, seconds: float = 1.0, seed: int = 7, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


class FaultyBattery(workloads.OracleBattery):
    """verify with its hidden failing check switched on."""

    def make_input(self, rng, index):
        op = super().make_input(rng, index)
        op.argv.append("--inject-fault")
        return op


class WrongDiscordSample(workloads.SweepGrid):
    """sweep whose sampled discord cells read 0.01 above the brute-force oracle."""

    def oracle_failures(self, model, samples):
        shifted = [(cell, axis, chsh, discord + 1e-2) for cell, axis, chsh, discord in samples]
        return super().oracle_failures(model, shifted)


class UnreadableTrajectory(workloads.TrajectoryPoints):
    """A check that meets output it does not expect."""

    def check(self, op, result, out_dir, counts):
        raise KeyError("missing field")


def run_in_process(argv, table):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv, workloads=table)
    lines = out.getvalue().splitlines()
    return code, json.loads(lines[-2])["detail"], json.loads(lines[-1])


class PlantedFaults(unittest.TestCase):
    def test_failing_verify_check_counts_as_failed_op(self):
        code, detail, result = run_in_process(
            ["--workload", "oracle-battery", "--seed", "1", "--seconds", "0.5"],
            {"oracle-battery": FaultyBattery()},
        )
        self.assertEqual(code, 0)
        self.assertFalse(result["correct"])
        # Every op fails: the set-up processes with exit code 1, the timed ops
        # on the FAIL line of the planted check as well.
        self.assertEqual(result["failed"], result["attempted"])
        self.assertEqual(detail["error_rate"], 1.0)

    def test_check_that_raises_counts_as_failed_op(self):
        code, detail, result = run_in_process(
            ["--workload", "trajectory-points", "--seed", "1", "--seconds", "0.2"],
            {"trajectory-points": UnreadableTrajectory()},
        )
        self.assertEqual(code, 0)
        self.assertGreater(result["failed"], run.WARMUP_OPS)
        self.assertIn("output unreadable: KeyError", detail["failures"][0])

    def test_deferred_oracle_mismatch_counts_as_failed_op(self):
        code, detail, result = run_in_process(
            ["--workload", "sweep-grid", "--seed", "1", "--seconds", "0.5"],
            {"sweep-grid": WrongDiscordSample()},
        )
        self.assertEqual(code, 0)
        self.assertFalse(result["correct"])
        # The timed ops fail their deferred oracle comparison; set-ups pass.
        self.assertGreater(result["failed"], run.WARMUP_OPS)
        self.assertLess(result["failed"], result["attempted"])
        self.assertIn("vs oracle", detail["failures"][0])

    def test_corrupted_sweep_cell_fails_the_check(self):
        grid = workloads.SweepGrid()
        op = grid.make_input(random.Random(3), 0)
        out = run.OUT_ROOT / f"check-{os.getpid()}"
        try:
            result = grid.run(op, out)
            checked = grid.check(op, result, out, {})
            self.assertEqual(checked.failures + [f for c in checked.deferred for f in c()], [])
            path = out / "sweep_xxz.csv"
            lines = path.read_text().splitlines()
            fields = lines[1].split(",")
            fields[-1] = "2.50000000000e+00"  # CHSH above the Bell bound
            lines[1] = ",".join(fields)
            path.write_text("\n".join(lines) + "\n")
            failures = grid.check(op, result, out, {}).failures
            self.assertTrue(any("CHSH above 2" in f for f in failures), failures)
        finally:
            shutil.rmtree(out, ignore_errors=True)


class Contract(unittest.TestCase):
    def test_refuses_to_run_without_the_program(self):
        bare = run.OUT_ROOT / f"bare-{os.getpid()}"
        try:
            for path in SPEC["paths"]:
                shutil.copytree(ROOT / path, bare / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
            proc = bench("sweep-grid", 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)

    def test_end_to_end_metrics_and_repeatable_work(self):
        names = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        first_detail, first = result_of(bench("trajectory-points", 0))
        again_detail, _ = result_of(bench("trajectory-points", 0))
        self.assertTrue(first["correct"])
        self.assertEqual({k: v["unit"] for k, v in first["metrics"].items()}, names)
        self.assertTrue(all(v["value"] > 0 for v in first["metrics"].values()))
        self.assertEqual(first_detail["work_per_op"], again_detail["work_per_op"])

    def test_missing_target_is_reported_absent(self):
        import qrgflow

        gone = (tracer.Target("flow.renamed", "flow", "no_such_function"),
                tracer.Target("models.validate", "models", "__post_init__", owner="NoSuchClass"))
        original = qrgflow.flow.sweep
        traced = tracer.Tracer(qrgflow, gone + tracer.COUNT_TARGETS, timed=True)
        try:
            self.assertEqual(traced.absent,
                             ["flow.no_such_function", "models.NoSuchClass.__post_init__"])
            self.assertIsNot(qrgflow.flow.sweep, original)
        finally:
            traced.uninstall()
        self.assertIs(qrgflow.flow.sweep, original)


class LayerShares(unittest.TestCase):
    """Each workload's traced run puts the most self time in its chosen layer."""

    names = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

    def traced(self, workload):
        detail, result = result_of(bench(workload, 1, seconds=2.0))
        self.assertTrue(result["correct"], detail["failures"])
        self.assertEqual(detail["absent"], [])
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, self.names)
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        self.assertGreater(metrics["trace.overhead_ratio"], 0.0)
        layers = {name: metrics[f"{name}.self_ms"] for name in tracer.LAYERS}
        return metrics, layers

    def test_sweep_grid_is_measures_bound(self):
        _, layers = self.traced("sweep-grid")
        self.assertEqual(max(layers, key=layers.get), "measures", layers)

    def test_critical_scaling_is_flow_and_models_bound(self):
        metrics, layers = self.traced("critical-scaling")
        validate = metrics["xstate.validate.self_us"] / 1e3
        flow_side = layers["flow"] + layers["models"] + validate
        layers["xstate"] -= validate
        others = [v for k, v in layers.items() if k not in ("flow", "models")]
        self.assertGreater(flow_side, max(others), layers)
        self.assertEqual(metrics["scaling.sweeps_per_depth"], 3.0)

    def test_oracle_battery_is_oracle_bound(self):
        metrics, layers = self.traced("oracle-battery")
        self.assertEqual(max(layers, key=layers.get), "oracle", layers)
        self.assertGreater(metrics["measures.discord_fallback_ratio"], 0.1)
        self.assertEqual(metrics["verify.checks_failed"], 0.0)

    def test_trajectory_points_runs_iterate(self):
        metrics, _ = self.traced("trajectory-points")
        self.assertEqual(metrics["flow.iterate.calls"], 1.0)
        self.assertEqual(metrics["measures.measure_all.calls"], 9.0)


if __name__ == "__main__":
    unittest.main(verbosity=2)
