"""qrgflow benchmark: closed-loop workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload sweep-grid --seed 1 --seconds 20 --trace 0

The program under test is the qrgflow package in ``src/`` next to this
directory; nothing is installed.  One client in this process runs one op at a
time (a closed loop) for ``--seconds`` seconds, in whole input cycles, and
checks every op's output outside the timed region.

``--trace 0`` prints the end-to-end metrics:

* ``op_p50_ms``: median op wall time.  Workloads that alternate two models
  report the mean of the two per-model medians: the median of a two-cluster
  sample sits in the gap between the clusters and follows their extremes.
* ``op_tail_ms``: the highest percentile with at least 10 ops beyond it (the
  11th slowest op); the percentile and sample count are on the detail line.
* ``items_per_s``: items completed per second of op time.
* ``setup_s``: median over several fresh processes of the wall time to start
  Python, import ``qrgflow.cli`` and finish the workload's first op.
* ``peak_rss_mb``: peak resident memory of this process, read before the
  checks that call brute-force oracles (see ``Runner.run_deferred``).

``--trace 1`` runs half the time untraced and half traced (see tracer.py) and
prints per-layer metrics: calls and self time per op for each wrapped
function, layer self totals, work counts and the tracing overhead ratio.
Spans are written to ``.bench_out/trace-<workload>-seed<seed>.json``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it is a JSON detail
record: run manifest, error rate, tail percentile, per-op work counts of the
warm-up ops (these must repeat exactly for a given seed), work counts summed
over the timed ops and failures.
"""

from __future__ import annotations

import argparse
import json
from array import array
from dataclasses import dataclass, field
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_ROOT = ROOT / ".bench_out"
BENCH_DIR = Path(__file__).resolve().parent

WARMUP_OPS = 2
# Fresh processes per run for setup_s: at least SETUP_MIN_RUNS, then more
# until SETUP_BUDGET_S is spent, so quick set-ups get a steadier median.
SETUP_MIN_RUNS, SETUP_MAX_RUNS, SETUP_BUDGET_S = 5, 25, 3.0
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 120

SETUP_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
import qrgflow.cli
spec = json.loads(sys.argv[2])
if "argv" in spec:
    sys.exit(qrgflow.cli.main(spec["argv"]))
from qrgflow import XXZParams, XYParams, iterate
params = (XXZParams if spec["model"] == "xxz" else XYParams)(1.0, spec["coupling"])
iterate(params, spec["steps"])
"""


def load_program():
    """Import qrgflow from this checkout's src/, never from site-packages."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import qrgflow

    if not Path(qrgflow.__file__).resolve().is_relative_to(src):
        raise ImportError(f"qrgflow imported from {qrgflow.__file__}, not {src}")
    return qrgflow


def manifest(seed: int) -> dict:
    import numpy as np

    head = ROOT / ".git" / "HEAD"
    rev = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        rev = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            rev = (ROOT / ".git" / ref[5:]).read_text().strip()
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
               if k in os.environ}
    return {
        "git_rev": rev,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "seed": seed,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": threads or "unpinned (library default)",
    }


def baseline(workload: str):
    path = BENCH_DIR / "baseline.json"
    if not path.is_file():
        return None
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    return {"git_rev": data.get("git_rev"), "figures": data.get("workloads", {}).get(workload)}


@dataclass
class Tally:
    """What the ops of one phase add up to.

    Op times are kept in compact arrays and checks are summed as they come,
    so that this process's memory (peak_rss_mb) does not grow with the number
    of ops a phase completes.
    """

    times: dict = field(default_factory=dict)  # kind -> array of op seconds
    items: int = 0  # items of the ops that passed every check
    work: dict = field(default_factory=dict)  # summed work counts of the checked ops

    def add(self, kind: str, seconds, checked) -> None:
        if seconds is not None:
            self.times.setdefault(kind, array("d")).append(seconds)
        if checked is not None:
            self.items += 0 if checked.failures else checked.items
            for key, value in checked.work.items():
                self.work[key] = self.work.get(key, 0) + value

    def op_times(self) -> list[float]:
        every = [t for kind in self.times.values() for t in kind]
        if not every:
            raise RuntimeError("no op completed")
        return every


class Runner:
    """Runs ops of one workload and keeps everything the metrics need."""

    def __init__(self, workload, seed: int, run_dir: Path):
        self.workload = workload
        self.seed = seed
        self.rng = random.Random(seed)
        self.run_dir = run_dir
        self.index = 0
        self.attempted = 0
        self.failures: list[str] = []
        self.failed = 0
        self.deferred: list[tuple[str, object, Tally]] = []  # (op label, CheckResult, tally)

    def next_input(self):
        op = self.workload.make_input(self.rng, self.index)
        self.index += 1
        return op

    def out_dir(self) -> Path:
        # A fresh directory per op: overwriting an existing CSV on ext4 forces
        # a flush that would be timed as if it were qrgflow's work.
        return self.run_dir / f"op{self.index:06d}"

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(message)

    def one_op(self, tracer, tally: Tally):
        """Run, time and check one op into ``tally``; returns its CheckResult or None."""
        op = self.next_input()
        out = self.out_dir()
        label = f"op {self.index - 1} ({op.kind})"
        before_calls, before_work = dict(tracer.calls), dict(tracer.work)
        before_callers = dict(tracer.by_caller)
        self.attempted += 1
        try:
            result, seconds = tracer.run_op(self.workload.run, op, out)
        except Exception as exc:  # an op that raises counts as failed and the run goes on
            self._fail(f"{label} raised {type(exc).__name__}: {exc}")
            shutil.rmtree(out, ignore_errors=True)
            return None
        counts = {k: v - before_calls.get(k, 0) for k, v in tracer.calls.items()}
        counts.update({f"{k}.cells": v - before_work.get(k, 0) for k, v in tracer.work.items()})
        counts.update({f"{k}@{caller}": v - before_callers.get((k, caller), 0)
                       for (k, caller), v in tracer.by_caller.items()})
        try:
            checked = self.workload.check(op, result, out, counts)
        except Exception as exc:  # output the check cannot read fails the op
            checked = None
            self._fail(f"{label} output unreadable: {type(exc).__name__}: {exc}")
        if checked is not None:
            checked.work["bytes_written"] = sum(
                p.stat().st_size for p in out.glob("*") if p.is_file()
            ) if out.is_dir() else 0
            if checked.failures:
                self._fail(f"{label}: " + "; ".join(checked.failures))
            elif checked.deferred:
                self.deferred.append((label, checked, tally))
        shutil.rmtree(out, ignore_errors=True)
        tally.add(op.kind, seconds, checked)
        return checked

    def phase(self, tracer, seconds: float) -> Tally:
        """Whole input cycles of ops until ``seconds`` of wall time have passed."""
        tally = Tally()
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or self.index % self.workload.cycle:
            self.one_op(tracer, tally)
        return tally

    def run_deferred(self) -> None:
        """Run the checks kept out of the measured phases.

        They call brute-force oracles whose arrays would otherwise set this
        process's peak memory; a failure here fails its op as usual.
        """
        for label, checked, tally in self.deferred:
            try:
                failures = [f for check in checked.deferred for f in check()]
            except Exception as exc:
                failures = [f"deferred check raised {type(exc).__name__}: {exc}"]
            if failures:
                tally.items -= checked.items
                self._fail(f"{label}: " + "; ".join(failures))
        self.deferred.clear()

    def setup_times(self) -> list[float]:
        op = self.workload.make_input(random.Random(self.seed), 0)
        walls: list[float] = []
        while len(walls) < SETUP_MIN_RUNS or (
            sum(walls) < SETUP_BUDGET_S and len(walls) < SETUP_MAX_RUNS
        ):
            out = self.run_dir / f"setup{len(walls)}"
            spec = json.dumps(self.workload.setup_spec(op, out))
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-c", SETUP_CHILD, str(ROOT / "src"), spec],
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S,
            )
            walls.append(time.perf_counter() - start)
            self.attempted += 1
            if proc.returncode != 0:
                self._fail(f"setup process exit {proc.returncode}: {proc.stderr[-300:]!r}")
            shutil.rmtree(out, ignore_errors=True)
        return walls


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, ops beyond) for the highest percentile with 10 ops beyond."""
    ordered = sorted(samples)
    idx = max(len(ordered) - 1 - TAIL_BEYOND, (len(ordered) - 1) // 2)
    return ordered[idx], 100.0 * (idx + 1) / len(ordered), len(ordered) - 1 - idx


def end_to_end(runner: Runner, tracer_mod, package, seconds: float, detail: dict) -> dict:
    setup = statistics.median(runner.setup_times())
    counter = tracer_mod.Tracer(package, tracer_mod.COUNT_TARGETS, timed=False)
    try:
        detail["work_per_op"] = warmup(runner, counter)
        tally = runner.phase(counter, seconds)
    finally:
        counter.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    runner.run_deferred()
    every = tally.op_times()
    p50 = statistics.fmean(statistics.median(kind) for kind in tally.times.values())
    tail_s, pct, beyond = tail(every)
    detail["op_tail"] = {"percentile": round(pct, 3), "beyond": beyond, "samples": len(every)}
    detail["ops_per_kind"] = {kind: len(v) for kind, v in tally.times.items()}
    detail["work_total"] = tally.work
    return {
        "op_p50_ms": (p50 * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "items_per_s": (tally.items / sum(every), "items/s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def warmup(runner: Runner, tracer) -> list[dict]:
    work = []
    for _ in range(WARMUP_OPS):
        checked = runner.one_op(tracer, Tally())
        work.append(checked.work if checked is not None else {})
    return work


def per_layer(runner: Runner, tracer_mod, package, seconds: float, detail: dict,
              span_path: Path) -> dict:
    counter = tracer_mod.Tracer(package, tracer_mod.COUNT_TARGETS, timed=False)
    try:
        detail["work_per_op"] = warmup(runner, counter)
        plain = runner.phase(counter, seconds / 2.0)
    finally:
        counter.uninstall()
    tracer = tracer_mod.Tracer(package, tracer_mod.TRACE_TARGETS, timed=True)
    try:
        traced = runner.phase(tracer, seconds / 2.0)
    finally:
        tracer.uninstall()
    runner.run_deferred()
    tracer.write_spans(span_path)
    detail["absent"] = tracer.absent
    detail["spans"] = str(span_path.relative_to(ROOT))
    plain_ms = statistics.fmean(plain.op_times()) * 1e3
    traced_ms = statistics.fmean(traced.op_times()) * 1e3
    metrics = tracer_mod.layer_metrics(tracer)
    ops = tracer.ops
    metrics.update({
        "cli.bytes_written": (traced.work.get("bytes_written", 0) / ops, "B"),
        "verify.checks_failed": (traced.work.get("checks_failed", 0) / ops, "count"),
        "trace.overhead_ratio": (traced_ms / plain_ms, "ratio"),
        "trace.untraced_op_ms": (plain_ms, "ms"),
        "trace.traced_op_ms": (traced_ms, "ms"),
        "trace.ops": (ops, "count"),
        "trace.absent_targets": (len(tracer.absent), "count"),
    })
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None, workloads=None) -> int:
    """Run one benchmark; ``workloads`` lets a test substitute a workload table."""
    args = parse_args(argv)
    try:
        package = load_program()
    except ImportError as exc:
        print(f"error: cannot load the program under test: {exc}", file=sys.stderr)
        return 2
    import tracer as tracer_mod
    from workloads import WORKLOADS

    table = workloads or WORKLOADS
    if args.workload not in table:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(table)}",
              file=sys.stderr)
        return 2
    run_dir = OUT_ROOT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    runner = Runner(table[args.workload], args.seed, run_dir)
    detail = {"workload": args.workload, "trace": args.trace, "manifest": manifest(args.seed),
              "baseline": baseline(args.workload)}
    try:
        if args.trace:
            span_path = OUT_ROOT / f"trace-{args.workload}-seed{args.seed}.json"
            metrics = per_layer(runner, tracer_mod, package, args.seconds, detail, span_path)
        else:
            metrics = end_to_end(runner, tracer_mod, package, args.seconds, detail)
    except RuntimeError as exc:
        print(f"error: {exc}; first failures: {runner.failures}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    detail["error_rate"] = runner.failed / runner.attempted
    detail["failures"] = runner.failures
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
