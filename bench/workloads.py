"""The four benchmark workloads: seeded inputs, the timed op, the output check.

Every workload is a closed loop with one client: the runner starts an op only
when the previous one has returned.  Seeds vary the data of each op but not
its amount of work.  A check runs outside the timed region and returns the
op's item count, its work counts (which must repeat exactly between runs of
the same seed), a list of failures and checks deferred to the end of the run;
any failure makes the op count as failed.
"""

from __future__ import annotations

import contextlib
import io
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import qrgflow
import qrgflow.cli
import qrgflow.flow

from tracer import ORACLES

# Tolerances shared with the package's own verify battery.
ORACLE_TOL = 1e-4
ORDER_TOL = 1e-9
BELL_TOL = 1e-12

# CLI column order of a sweep CSV after the axis/iteration/N columns.
MEASURE_COLUMNS = (
    "concurrence", "qd_optimal", "qd_sigma_x", "qd_sigma_y", "qd_sigma_z",
    "mid", "gd", "min", "chsh_max",
)
# The same measures as MeasureSet fields (iterate's per-step record).
MEASURE_FIELDS = MEASURE_COLUMNS[:7] + ("min_nl", "chsh_max")


@dataclass
class OpInput:
    kind: str  # model tag; op_p50_ms averages the per-kind medians
    argv: list = field(default_factory=list)  # CLI arguments, without --out
    data: dict = field(default_factory=dict)


@dataclass
class CheckResult:
    items: int
    work: dict
    failures: list
    # Zero-argument callables returning failures, run after the measured phase
    # so that the memory of the brute-force oracles they call stays out of
    # peak_rss_mb.
    deferred: list = field(default_factory=list)


def measure_failures(rows) -> list[str]:
    """Orderings every flow-state measure set obeys.

    ``rows`` is an (n, 9) array in MEASURE_COLUMNS order.  CHSH <= 2 holds on
    every edge state of both flows (the bound saturates at the sinks).
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    conc, qd_opt, qd_x, qd_y, qd_z, mid, gd, min_nl, chsh = rows.T
    checks = (
        ("concurrence outside [0, 1]", (conc < 0.0) | (conc > 1.0 + BELL_TOL)),
        ("qd_optimal above a fixed-axis discord",
         qd_opt > np.minimum(np.minimum(qd_x, qd_y), qd_z) + ORDER_TOL),
        ("mid below qd_optimal", mid < qd_opt - ORDER_TOL),
        ("gd above min or negative", (gd > min_nl + ORDER_TOL) | (gd < -BELL_TOL)),
        ("CHSH above 2 on a flow state", chsh > 2.0 + BELL_TOL),
        ("non-finite measure", ~np.isfinite(rows).all(axis=1)),
    )
    return [f"{name} ({int(bad.sum())} rows)" for name, bad in checks if bad.any()]


def _edge_state(model: str, axis_value: float, depth: int):
    params = (
        qrgflow.XXZParams(1.0, axis_value)
        if model == "xxz"
        else qrgflow.XYParams(1.0, qrgflow.gamma_of_g(axis_value))
    )
    for _ in range(depth):
        params = qrgflow.advance(params)
    return qrgflow.reduced_state(params)


class Workload:
    name = ""
    cycle = 1  # ops per input cycle; runs stop only after whole cycles
    writes_files = True  # the CLI command takes --out

    def make_input(self, rng, index: int) -> OpInput:
        raise NotImplementedError

    def argv(self, op: OpInput, out_dir: Path) -> list:
        return op.argv + (["--out", str(out_dir)] if self.writes_files else [])

    def run(self, op: OpInput, out_dir: Path):
        """The timed op: one CLI command in-process, stdout captured."""
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            try:
                code = qrgflow.cli.main(self.argv(op, out_dir))
            except SystemExit as exc:  # argparse rejects bad arguments this way
                code = exc.code
        return code, buffer.getvalue()

    def check(self, op: OpInput, result, out_dir: Path, counts: dict) -> CheckResult:
        raise NotImplementedError

    def setup_spec(self, op: OpInput, out_dir: Path) -> dict:
        """What a fresh process runs as its first op (see run.SETUP_CHILD)."""
        return {"argv": self.argv(op, out_dir)}


class SweepGrid(Workload):
    """``sweep`` with CLI defaults; models alternate; upper range end jittered ±10%."""

    name = "sweep-grid"
    cycle = 2
    models = (("xxz", "delta", 2.5), ("xy", "g", 3.0))  # CLI default ranges
    points, depths, samples = 500, 7, 2

    def make_input(self, rng, index):
        model, axis, hi = self.models[index % 2]
        hi *= 1.0 + rng.uniform(-0.1, 0.1)
        cells = [rng.randrange(self.points * self.depths) for _ in range(self.samples)]
        return OpInput(model, ["sweep", "--model", model, "--range", f"0.0:{hi!r}"],
                       {"axis": axis, "hi": hi, "cells": cells})

    def check(self, op, result, out_dir, counts):
        code, _ = result
        rows = self.points * self.depths
        work = {"states": 0, "grid_cells": 0, "sweep_cells": counts.get("flow.sweep.cells", 0)}
        if code != 0:
            return CheckResult(0, work, [f"exit code {code}"])
        path = out_dir / f"sweep_{op.kind}.csv"
        with open(path, encoding="utf-8") as handle:
            header = handle.readline().strip().split(",")
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        work.update(states=table.shape[0], grid_cells=table.shape[0] * (table.shape[1] - 3))
        failures = []
        if header != [op.data["axis"], "iteration", "N", *MEASURE_COLUMNS]:
            failures.append(f"unexpected header {header}")
        if table.shape != (rows, 3 + len(MEASURE_COLUMNS)):
            return CheckResult(table.shape[0], work, failures + [f"table shape {table.shape}"])
        grid = np.linspace(0.0, op.data["hi"], self.points)
        depth = np.tile(np.arange(self.depths), self.points)
        if np.abs(table[:, 0] - np.repeat(grid, self.depths)).max() > 1e-10 * op.data["hi"]:
            failures.append("axis column does not match the requested grid")
        if (table[:, 1] != depth).any() or (table[:, 2] != 3.0 ** (depth + 1)).any():
            failures.append("iteration or N column out of order")
        failures += measure_failures(table[:, 3:])
        chsh_col = 3 + MEASURE_COLUMNS.index("chsh_max")
        qd_col = 3 + MEASURE_COLUMNS.index("qd_optimal")
        samples = [(cell, float(grid[cell // self.depths]), table[cell, chsh_col],
                    table[cell, qd_col]) for cell in op.data["cells"]]
        return CheckResult(table.shape[0], work, failures,
                           [lambda: self.oracle_failures(op.kind, samples)])

    def oracle_failures(self, model: str, samples) -> list[str]:
        """Sampled cells against the brute-force oracles at the verify tolerance."""
        failures = []
        for cell, axis_value, chsh, discord in samples:
            state = _edge_state(model, axis_value, cell % self.depths)
            oracle_chsh = qrgflow.brute_force_chsh(state)
            oracle_discord, _ = qrgflow.brute_force_discord(state)
            if abs(oracle_chsh - chsh) > ORACLE_TOL:
                failures.append(f"row {cell}: CHSH {chsh} vs oracle {oracle_chsh}")
            if abs(oracle_discord - discord) > ORACLE_TOL:
                failures.append(f"row {cell}: discord {discord} vs oracle {oracle_discord}")
        return failures


# Exponent of the Bell-derivative magnitude predicted by linearising the RG
# map at the critical point: ln f'(g*) / ln 3, with f'(0) = 3 for the XY
# gamma map and f'(1) = 5/3 for the XXZ delta map.
PREDICTED_EXPONENT = {"xy": 1.0, "xxz": math.log(5.0 / 3.0) / math.log(3.0)}
EXPONENT_TOL = 0.02
_FIT_LINE = re.compile(r"^magnitude_fit exponent=(\S+) intercept=(\S+) r_squared=(\S+)$")


class CriticalScaling(Workload):
    """``scaling`` on chsh_max with defaults; window ends jittered ±0.05."""

    name = "critical-scaling"
    cycle = 2
    models = ("xy", "xxz")
    depths = 6  # CLI default iterations 2..7

    def make_input(self, rng, index):
        model = self.models[index % 2]
        lo = 0.5 + rng.uniform(-0.05, 0.05)
        hi = 1.5 + rng.uniform(-0.05, 0.05)
        return OpInput(model, ["scaling", "--model", model, "--range", f"{lo!r}:{hi!r}"])

    def check(self, op, result, out_dir, counts):
        code, _ = result
        sweeps = counts.get("flow.sweep", 0)
        depths = counts.get("scaling.derivative_extremum", 0)
        work = {"grid_states": counts.get("flow.sweep.cells", 0), "sweeps": sweeps,
                "depths": depths}
        if code != 0:
            return CheckResult(0, work, [f"exit code {code}"])
        stem = out_dir / f"scaling_{op.kind}_chsh_max"
        failures = []
        with open(f"{stem}.csv", encoding="utf-8") as handle:
            rows = handle.read().splitlines()[1:]
        if len(rows) != self.depths:
            failures.append(f"{len(rows)} scaling rows, expected {self.depths}")
        with open(f"{stem}_fits.txt", encoding="utf-8") as handle:
            fit = _FIT_LINE.match(handle.readline().strip())
        if fit is None:
            return CheckResult(work["grid_states"], work, failures + ["no magnitude fit line"])
        exponent, r_squared = float(fit.group(1)), float(fit.group(3))
        predicted = PREDICTED_EXPONENT[op.kind]
        if not r_squared > 0.999:
            failures.append(f"magnitude fit r^2 {r_squared}")
        if not abs(exponent - predicted) < EXPONENT_TOL:
            failures.append(f"magnitude exponent {exponent}, RG prediction {predicted}")
        return CheckResult(work["grid_states"], work, failures)


class OracleBattery(Workload):
    """``verify`` with every count at 1/25 of its default, in the same proportions."""

    name = "oracle-battery"
    writes_files = False
    oracle_states, random_states, jacobi_matrices = 20, 400, 40
    params_per_model, sweep_points = 2, 20
    bell_depths = 7  # the bell check sweeps iterations 0..6

    def make_input(self, rng, index):
        seed = rng.randrange(2 ** 31)
        return OpInput("verify", [
            "verify", "--seed", str(seed), "--oracle-states", str(self.oracle_states),
            "--random-states", str(self.random_states),
            "--jacobi-matrices", str(self.jacobi_matrices),
            "--params-per-model", str(self.params_per_model),
            "--sweep-points", str(self.sweep_points),
        ])

    def requested(self) -> dict[str, int]:
        """States (matrices for Jacobi) each check is asked to examine."""
        return {
            "bloch_round_trip": self.random_states // 5,
            "spectrum_oracle": self.random_states // 20,
            "jacobi_reconstruction": self.jacobi_matrices,
            "mid_identity": self.random_states,
            "measure_battery": self.random_states // 5,
            "ground_blocks": 2 * self.params_per_model,
            "bell_bound": 2 * self.sweep_points * self.bell_depths,  # xxz and xy sweeps
            "chsh_oracle": self.oracle_states,
            "discord_oracle": self.oracle_states,
        }

    @staticmethod
    def examined(counts: dict) -> dict[str, int]:
        """States each check passed through its per-state call, as the tracer counted them.

        verify calls ``diag_symmetric`` once per spectrum state, per Jacobi
        matrix and per ground block, and ``partial_trace_mid`` twice per block.
        """
        spectrum = counts.get("xstate.spectrum@verify", 0)
        blocks = counts.get("oracle.partial_trace_mid@verify", 0) // 2
        return {
            "bloch_round_trip": counts.get("xstate.to_bloch@verify", 0),
            "spectrum_oracle": spectrum,
            "jacobi_reconstruction": counts.get("oracle.diag_symmetric@verify", 0)
            - spectrum - blocks,
            "mid_identity": counts.get("measures.mid@verify", 0),
            "measure_battery": counts.get("measures.measure_all@verify", 0),
            "ground_blocks": blocks,
            "bell_bound": counts.get("flow.sweep.cells", 0),
            "chsh_oracle": counts.get("oracle.brute_force_chsh@verify", 0),
            "discord_oracle": counts.get("oracle.brute_force_discord@verify", 0),
        }

    def check(self, op, result, out_dir, counts):
        code, text = result
        lines = [line for line in text.splitlines() if line.startswith(("PASS ", "FAIL "))]
        examined = self.examined(counts)
        matrices = examined["jacobi_reconstruction"]
        states = sum(examined.values()) - matrices
        work = {
            "states_checked": states,
            "matrices_checked": matrices,
            "oracle_calls": sum(counts.get(f"oracle.{name}", 0) for name in ORACLES),
            "checks_failed": sum(line.startswith("FAIL ") for line in lines),
        }
        failures = [line for line in lines if line.startswith("FAIL ")]
        if code != 0:
            failures.append(f"exit code {code}")
        if len(lines) != len(examined):
            failures.append(f"{len(lines)} check lines, expected {len(examined)}")
        failures += [f"{check} examined {examined[check]}, requested {n}"
                     for check, n in self.requested().items() if examined[check] != n]
        return CheckResult(states + matrices, work, failures)


class TrajectoryPoints(Workload):
    """``iterate(params, 8)`` from seeded starts, XXZ and XY alternating."""

    name = "trajectory-points"
    cycle = 2
    steps = 8
    # Flows leave the critical coupling monotonically on the side they start.
    critical = {"xxz": 1.0, "xy": 0.0}
    bounds = {"xxz": (0.0, math.inf), "xy": (-1.0, 1.0)}

    def make_input(self, rng, index):
        if index % 2 == 0:
            return OpInput("xxz", data={"coupling": rng.uniform(0.0, 2.5)})
        return OpInput("xy", data={"coupling": rng.uniform(-1.0, 1.0)})

    def _params(self, op):
        cls = qrgflow.XXZParams if op.kind == "xxz" else qrgflow.XYParams
        return cls(1.0, op.data["coupling"])

    def run(self, op, out_dir):
        return qrgflow.flow.iterate(self._params(op), self.steps)

    def check(self, op, result, out_dir, counts):
        steps = result.steps
        # Ops whose discord falls back to the brute-force search are the slow
        # tail of this workload (about 0.6% of seeded starts).
        work = {"steps": len(steps),
                "discord_fallbacks": counts.get("oracle.brute_force_discord@measures", 0)}
        failures = []
        if [s.n for s in steps] != list(range(self.steps + 1)):
            failures.append("trajectory step indices out of order")
        if any(s.size != 3 ** (s.n + 1) for s in steps):
            failures.append("effective sizes are not 3^(n+1)")
        attr = "delta" if op.kind == "xxz" else "gamma"
        couplings = [getattr(s.params, attr) for s in steps]
        crit = self.critical[op.kind]
        side = math.copysign(1.0, couplings[0] - crit)
        distance = [side * (c - crit) for c in couplings]
        if any(b < a for a, b in zip(distance, distance[1:])):
            failures.append(f"{attr} does not flow monotonically away from {crit}")
        lo, hi = self.bounds[op.kind]
        if any(not lo <= c <= hi for c in couplings):
            failures.append(f"{attr} left [{lo}, {hi}]")
        failures += measure_failures(
            [[getattr(s.measures, f) for f in MEASURE_FIELDS] for s in steps]
        )
        return CheckResult(len(steps), work, failures)

    def setup_spec(self, op, out_dir):
        return {"model": op.kind, "coupling": op.data["coupling"], "steps": self.steps}


WORKLOADS = {w.name: w for w in (SweepGrid(), CriticalScaling(), OracleBattery(),
                                 TrajectoryPoints())}
