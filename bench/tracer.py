"""Tracing of qrgflow from outside the package.

The tracer replaces each target function by a wrapper in every namespace that
binds it: the defining module, every other qrgflow module that imported it,
the package namespace and the ``MEASURE_FUNCS`` table.  Validators are
wrapped on their class (``__post_init__``).  A wrapper records only while the
tracer is active, so output checks that call the library between ops leave the
figures alone.

Two kinds of target:

* span targets (ms-scale calls: CLI commands, sweeps, checks, oracles) get one
  span record each, with the span that caused it;
* aggregate targets (µs-scale calls that run 10^4-10^5 times per op) add their
  count and self time to the enclosing span instead of making spans.

Self time is a call's duration minus the time of the wrapped calls inside it.
Spans stay in memory (for the first ``SPAN_OPS`` ops) and are written by
``write_spans`` when the run ends.  A target that no longer exists is listed
in ``absent`` rather than raising.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``module.name`` or ``module.Class.__post_init__``."""

    key: str  # metric base name, e.g. "measures.discord_optimal"
    module: str  # defining module, relative to the qrgflow package
    name: str
    owner: str | None = None  # class whose method is wrapped
    span: bool = False
    work: object = None  # result -> extra work count, recorded as <key>.cells
    callers: tuple | None = None  # namespaces to wrap in; None means every one


def _sweep_cells(table) -> int:
    return int(table.values.shape[0] * table.values.shape[1])


CHECKS = (
    "bloch_round_trip", "spectrum_oracle", "jacobi_reconstruction", "mid_identity",
    "measure_battery", "ground_blocks", "bell_bound", "chsh_oracle", "discord_oracle",
)
MEASURES = (
    "concurrence", "discord_optimal", "discord_sigma_xy", "discord_sigma_z", "mid",
    "geometric_discord", "min_nonlocality", "chsh_max", "measure_all",
)
ORACLES = ("brute_force_chsh", "brute_force_discord", "diag_symmetric", "partial_trace_mid")

# Functions counted in every namespace in every run, traced or not.  Each takes
# 0.1 ms or more, so a count-only wrapper costs well under 0.1% of an op.
SPAN_COUNTS = (
    Target("flow.sweep", "flow", "sweep", span=True, work=_sweep_cells),
    Target("scaling.derivative_extremum", "scaling", "derivative_extremum", span=True),
) + tuple(Target(f"oracle.{name}", "oracle", name, span=True) for name in ORACLES)

# The per-state and per-matrix calls of the verify checks, counted only where
# verify binds them (a few hundred calls per op), so that the states and
# matrices a check examined are recorded by the harness, not read from its
# output.  The traced run wraps these functions in every namespace anyway.
VERIFY_ITEMS = tuple(
    Target(f"{module}.{name}", module, name, callers=("verify",))
    for module, name in (("xstate", "to_bloch"), ("xstate", "spectrum"),
                         ("measures", "mid"), ("measures", "measure_all"))
)

COUNT_TARGETS = SPAN_COUNTS + VERIFY_ITEMS

TRACE_TARGETS = (
    Target("xstate.spectrum", "xstate", "spectrum"),
    Target("xstate.to_bloch", "xstate", "to_bloch"),
    Target("xstate.validate", "xstate", "__post_init__", owner="XState"),
    Target("models.rg_step", "models", "xxz_rg_step"),
    Target("models.rg_step", "models", "xy_rg_step"),
    Target("models.rho13", "models", "xxz_rho13"),
    Target("models.rho13", "models", "xy_rho13"),
    Target("models.params_validate", "models", "__post_init__", owner="XXZParams"),
    Target("models.params_validate", "models", "__post_init__", owner="XYParams"),
    Target("flow.advance", "flow", "advance"),
    Target("flow.iterate", "flow", "iterate", span=True),
    Target("scaling.fit", "scaling", "loglog_fit", span=True),
    Target("cli.main", "cli", "main", span=True),
) + tuple(
    Target(f"measures.{name}", "measures", name) for name in MEASURES
) + tuple(
    Target(f"verify.{name}", "verify", f"check_{name}", span=True) for name in CHECKS
) + SPAN_COUNTS

LAYERS = ("xstate", "models", "measures", "flow", "scaling", "oracle", "verify", "cli")
SPAN_OPS = 256  # ops whose spans are kept for write_spans


class Tracer:
    """Wraps qrgflow targets; ``timed=False`` only counts calls and work."""

    def __init__(self, package, targets, timed: bool):
        self.package = package
        self.timed = timed
        self.active = False
        self.ops = 0
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.work: dict[str, int] = {}
        self.by_caller: dict[tuple[str, str], int] = {}
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self._stack: list[list] = []  # frames: [child_ns, span record or None]
        self._restore: list[tuple[object, str, object]] = []
        self._install(targets)

    # -- installation -------------------------------------------------------

    def _namespaces(self):
        pkg = self.package
        out = [("qrgflow", vars(pkg))]
        for name in LAYERS:
            module = getattr(pkg, name, None)
            if module is not None:
                out.append((name, vars(module)))
        measures = getattr(pkg, "measures", None)
        table = getattr(measures, "MEASURE_FUNCS", None)
        if isinstance(table, dict):
            out.append(("measures", table))
        return out

    def _install(self, targets) -> None:
        namespaces = self._namespaces()
        for target in targets:
            module = getattr(self.package, target.module, None)
            if target.owner is not None:
                cls = getattr(module, target.owner, None)
                fn = vars(cls).get(target.name) if isinstance(cls, type) else None
                if fn is None:
                    self.absent.append(f"{target.module}.{target.owner}.{target.name}")
                    continue
                self._replace(cls, target.name, self._wrap(fn, target, target.module))
                continue
            fn = getattr(module, target.name, None)
            if not callable(fn):
                self.absent.append(f"{target.module}.{target.name}")
                continue
            for caller, space in namespaces:
                if target.callers is not None and caller not in target.callers:
                    continue
                for name, value in list(space.items()):
                    if value is fn:
                        self._replace(space, name, self._wrap(fn, target, caller))

    def _replace(self, where, name, wrapper) -> None:
        if isinstance(where, dict):
            self._restore.append((where, name, where[name]))
            where[name] = wrapper
        else:
            self._restore.append((where, name, vars(where)[name]))
            setattr(where, name, wrapper)

    def uninstall(self) -> None:
        for where, name, original in reversed(self._restore):
            if isinstance(where, dict):
                where[name] = original
            else:
                setattr(where, name, original)
        self._restore.clear()

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn, target: Target, caller: str):
        tracer = self
        key = target.key
        caller_key = (key, caller)

        if not self.timed:
            def counting(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                result = fn(*args, **kwargs)
                tracer.calls[key] = tracer.calls.get(key, 0) + 1
                tracer.by_caller[caller_key] = tracer.by_caller.get(caller_key, 0) + 1
                if target.work is not None:
                    tracer.work[key] = tracer.work.get(key, 0) + target.work(result)
                return result

            return functools.update_wrapper(counting, fn)

        clock = time.perf_counter_ns
        stack = self._stack
        is_cli = key == "cli.main"

        def timed(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            name = key
            if is_cli:  # one metric per subcommand: cli.<command>
                argv = args[0] if args else kwargs.get("argv")
                name = f"cli.{argv[0]}" if argv else key
            record = None
            if target.span and tracer.ops <= SPAN_OPS:
                record = {"op": tracer.ops, "name": name, "parent": tracer._current_span(),
                          "agg": {}}
                record["id"] = len(tracer.spans)
                tracer.spans.append(record)
            frame = [0, record]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                own = duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
                tracer.self_ns[name] = tracer.self_ns.get(name, 0) + own
                tracer.by_caller[caller_key] = tracer.by_caller.get(caller_key, 0) + 1
                if record is not None:
                    record.update(start_us=start / 1e3, dur_us=duration / 1e3, self_us=own / 1e3)
                elif not target.span:
                    parent = tracer._current_record()
                    if parent is not None:
                        agg = parent["agg"].setdefault(name, [0, 0.0])
                        agg[0] += 1
                        agg[1] += own / 1e3
            if target.work is not None:
                tracer.work[key] = tracer.work.get(key, 0) + target.work(result)
            return result

        return functools.update_wrapper(timed, fn)

    def _current_record(self):
        for frame in reversed(self._stack):
            if frame[1] is not None:
                return frame[1]
        return None

    def _current_span(self):
        record = self._current_record()
        return None if record is None else record["id"]

    # -- ops ------------------------------------------------------------------

    def run_op(self, fn, *args):
        """Run one op as the root span; returns (result, wall seconds)."""
        self.ops += 1
        self.active = True
        record = None
        if self.timed and self.ops <= SPAN_OPS:
            record = {"op": self.ops, "name": "bench.op", "parent": None, "agg": {},
                      "id": len(self.spans)}
            self.spans.append(record)
        frame = [0, record]
        self._stack.append(frame)
        start = time.perf_counter_ns()
        try:
            return fn(*args), (time.perf_counter_ns() - start) / 1e9
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.active = False
            if self.timed:
                own = end - start - frame[0]
                self.calls["bench.op"] = self.calls.get("bench.op", 0) + 1
                self.self_ns["bench.op"] = self.self_ns.get("bench.op", 0) + own
                if record is not None:
                    record.update(start_us=start / 1e3, dur_us=(end - start) / 1e3,
                                  self_us=own / 1e3)

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"absent": self.absent, "spans": self.spans}, handle)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-op figures of a timed tracer: ``name -> (value, unit)``."""
    ops = max(tracer.ops, 1)
    out = {}

    def add(key, stat, scale, unit):
        out[f"{key}.calls"] = (tracer.calls.get(key, 0) / ops, "count")
        out[f"{key}.{stat}"] = (tracer.self_ns.get(key, 0) / ops / scale, unit)

    for key in [f"measures.{name}" for name in MEASURES] + [
        "xstate.spectrum", "xstate.to_bloch", "xstate.validate", "flow.advance",
        "models.rg_step", "models.rho13", "models.params_validate", "flow.iterate",
        "scaling.fit",
    ]:
        add(key, "self_us", 1e3, "us")
    for key in [f"oracle.{name}" for name in ORACLES] + [
        "scaling.derivative_extremum", "flow.sweep",
    ]:
        add(key, "self_ms", 1e6, "ms")
    for caller in ("measures", "verify"):
        calls = tracer.by_caller.get(("oracle.brute_force_discord", caller), 0)
        out[f"oracle.brute_force_discord.calls_from_{caller}"] = (calls / ops, "count")
    base = tracer.calls.get("measures.discord_optimal", 0)
    fallbacks = tracer.by_caller.get(("oracle.brute_force_discord", "measures"), 0)
    out["measures.discord_fallback_ratio"] = (fallbacks / base if base else 0.0, "ratio")
    for name in CHECKS:
        out[f"verify.{name}.self_ms"] = (tracer.self_ns.get(f"verify.{name}", 0) / ops / 1e6,
                                         "ms")
    depths = tracer.calls.get("scaling.derivative_extremum", 0)
    sweeps = tracer.by_caller.get(("flow.sweep", "scaling"), 0)
    out["scaling.sweeps_per_depth"] = (sweeps / depths if depths else 0.0, "count")
    out["flow.sweep.cells"] = (tracer.work.get("flow.sweep", 0) / ops, "count")
    for command in ("sweep", "scaling", "verify"):
        out[f"cli.{command}.self_ms"] = (tracer.self_ns.get(f"cli.{command}", 0) / ops / 1e6,
                                         "ms")
    for layer in LAYERS + ("bench",):
        total = sum(ns for key, ns in tracer.self_ns.items() if key.startswith(layer + "."))
        out[f"{layer}.self_ms"] = (total / ops / 1e6, "ms")
    return out
