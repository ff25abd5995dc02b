"""Coupling-map iteration and parameter sweeps with measure evaluation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .measures import MEASURE_FUNCS, MEASURE_NAMES, MeasureSet, measure_all
from .models import get_model, model_of

ITERATION_CAP = 30
_SNAP_TOL = 1e-14


def effective_size(n: int) -> int:
    """Chain length 3^(n+1) represented by n coupling-map iterations."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise DomainError(f"iteration count must be an integer, got {n!r}")
    if n < 0:
        raise DomainError(f"iteration count must be >= 0, got {n}")
    return 3 ** (int(n) + 1)


def _snapped_step(model, j: float, coupling: float) -> tuple[float, float]:
    """One coupling-map step on floats; a coupling within 1e-14 of a fixed point snaps onto it."""
    j, coupling = model.step(j, coupling)
    for p in model.fixed_points:  # so converged flows stop churning at float resolution
        if abs(coupling - p) < _SNAP_TOL:
            return j, p
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
    XXZ, the coupling ratio 'g' for XY (converted to gamma internally).
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
        unknown = [m for m in chosen if m not in MEASURE_FUNCS]
        if unknown:
            raise DomainError(f"unknown measures {unknown}; valid: {list(MEASURE_NAMES)}")
        if not chosen:
            raise DomainError("need at least one measure")

    grid = np.linspace(float(lo), float(hi), int(points))
    funcs = [MEASURE_FUNCS[m] for m in chosen]
    values = np.empty((len(its), len(grid), len(chosen)))
    couplings = np.empty((len(its), len(grid)))
    wanted = {n: row for row, n in enumerate(its)}
    for col, axis_value in enumerate(grid):
        j, coupling = 1.0, entry.coupling_of_axis(float(axis_value))
        for n in range(its[-1] + 1):
            if n in wanted:
                couplings[wanted[n], col] = coupling
                state = entry.edge_state(coupling)
                values[wanted[n], col, :] = [f(state) for f in funcs]
            if n < its[-1]:
                j, coupling = _snapped_step(entry, j, coupling)
    return SweepTable(model, entry.axis, grid, tuple(its), chosen, values, couplings)
