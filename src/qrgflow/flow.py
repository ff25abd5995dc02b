"""Coupling-map iteration and parameter sweeps with measure evaluation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .elementwise import ops_of
from .measures import MEASURE_NAMES, MeasureSet, evaluate, measure_all
from .models import get_model, model_of

ITERATION_CAP = 30
MAX_SWEEP_CELLS = 2**24  # iterations x points x measures; the values table is then 128 MiB
_SNAP_TOL = 1e-14
_CHUNK = 8192  # grid points flowed and measured together, which bounds the working arrays


def effective_size(n: int) -> int:
    """Chain length 3^(n+1) represented by n coupling-map iterations."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise DomainError(f"iteration count must be an integer, got {n!r}")
    if n < 0:
        raise DomainError(f"iteration count must be >= 0, got {n}")
    return 3 ** (int(n) + 1)


def _snapped_step(model, j, coupling):
    """One coupling-map step on floats or arrays.

    A coupling within 1e-14 of a fixed point snaps onto it.
    """
    j, coupling = model.step(j, coupling)
    ops = ops_of(coupling)
    for p in model.fixed_points:  # so converged flows stop churning at float resolution
        coupling = ops.where(abs(coupling - p) < _SNAP_TOL, p, coupling)
    return j, coupling


def advance(params):
    """One snapped coupling-map step on a params record."""
    model = model_of(params)
    return model.params(*_snapped_step(model, params.j, getattr(params, model.coupling)))


@dataclass(frozen=True)
class FlowStep:
    """One trajectory entry: iteration index, couplings, size, measures."""

    n: int
    params: object
    size: int
    measures: MeasureSet


@dataclass(frozen=True)
class RGTrajectory:
    model: str
    initial: object
    steps: tuple[FlowStep, ...]


def iterate(params, n_steps: int, cap: int | None = ITERATION_CAP) -> RGTrajectory:
    """Iterate the coupling map n_steps times, measuring at every step.

    Returns n_steps + 1 entries (iteration 0 is the bare block).  Steps beyond
    cap raise DomainError; pass cap=None to lift it.
    """
    model = model_of(params)
    if not isinstance(n_steps, (int, np.integer)) or isinstance(n_steps, bool) or n_steps < 0:
        raise DomainError(f"step count must be a non-negative integer, got {n_steps!r}")
    if cap is not None and n_steps > cap:
        raise DomainError(f"step count {n_steps} exceeds the iteration cap {cap}")
    steps = []
    current = params
    for n in range(int(n_steps) + 1):
        state = model.edge_state(getattr(current, model.coupling))
        steps.append(FlowStep(n, current, effective_size(n), measure_all(state)))
        if n < n_steps:
            current = advance(current)
    return RGTrajectory(model.name, params, tuple(steps))


@dataclass(frozen=True, eq=False)
class SweepTable:
    """Sweep result: values[iteration, grid point, measure] and couplings[iteration, grid point]."""

    model: str
    axis: str
    grid: np.ndarray
    iterations: tuple[int, ...]
    measures: tuple[str, ...]
    values: np.ndarray
    couplings: np.ndarray


def sweep(model: str, lo: float, hi: float, points: int, iterations, measures=None) -> SweepTable:
    """Measure curves over a parameter grid for a set of iteration depths.

    The grid runs over the model's plotting axis: the anisotropy 'delta' for
    XXZ, the coupling ratio 'g' for XY (converted to gamma internally).  The
    couplings of the whole grid flow as one array per depth, and each measure
    column is evaluated in one pass; every cell equals the per-state measure
    of ``edge_state`` of its coupling.  A request above MAX_SWEEP_CELLS is a
    DomainError, raised before anything is allocated.
    """
    entry = get_model(model)
    if not (np.isfinite(lo) and np.isfinite(hi)) or not lo < hi:
        raise DomainError(f"need finite lo < hi, got [{lo}, {hi}]")
    if lo < 0.0:
        raise DomainError(f"axis {entry.axis!r} requires values >= 0, got lo = {lo}")
    if not isinstance(points, (int, np.integer)) or isinstance(points, bool) or points < 2:
        raise DomainError(f"need at least 2 grid points, got {points!r}")
    its = sorted({int(n) for n in iterations})
    if not its:
        raise DomainError("need at least one iteration index")
    if its[0] < 0:
        raise DomainError(f"iteration indices must be >= 0, got {its[0]}")
    if its[-1] > ITERATION_CAP:
        raise DomainError(f"iteration {its[-1]} exceeds the iteration cap {ITERATION_CAP}")
    if measures is None:
        chosen = MEASURE_NAMES
    else:
        chosen = tuple(measures)
        unknown = [m for m in chosen if m not in MEASURE_NAMES]
        if unknown:
            raise DomainError(f"unknown measures {unknown}; valid: {list(MEASURE_NAMES)}")
        if not chosen:
            raise DomainError("need at least one measure")

    cells = len(its) * int(points) * len(chosen)
    if cells > MAX_SWEEP_CELLS:
        raise DomainError(f"sweep of {cells} cells exceeds the limit of {MAX_SWEEP_CELLS}")

    grid = np.linspace(float(lo), float(hi), int(points))
    values = np.empty((len(its), len(grid), len(chosen)))
    couplings = np.empty((len(its), len(grid)))
    wanted = {n: row for row, n in enumerate(its)}
    with np.errstate(over="ignore"):  # the Neel side flows to delta = inf, as floats do silently
        for start in range(0, len(grid), _CHUNK):
            cols = slice(start, start + _CHUNK)
            j, coupling = 1.0, entry.coupling_of_axis(grid[cols])
            for n in range(its[-1] + 1):
                if n in wanted:
                    couplings[wanted[n], cols] = coupling
                    state = entry.edge_state(coupling)
                    for k, column in enumerate(evaluate(state, chosen)):
                        values[wanted[n], cols, k] = column
                if n < its[-1]:
                    j, coupling = _snapped_step(entry, j, coupling)
    return SweepTable(model, entry.axis, grid, tuple(its), chosen, values, couplings)
