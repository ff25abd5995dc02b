"""Finite-size scaling of measure derivatives across the coupling flow.

The pipeline sweeps a measure against the plotting axis at several iteration
depths, differentiates, locates the derivative extremum near the critical
point, and fits ln(extremum magnitude) and ln(critical offset) against
ln(effective size).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    ExtremumAtBoundary,
    NonPositiveValue,
    NonUniformGrid,
)
from .flow import effective_size, iteration_depth, sweep
from .measures import MEASURE_NAMES

CRITICAL_POINT = 1.0  # both models in their plotting variables


@dataclass(frozen=True, eq=False)
class DerivativeCurve:
    """Derivative samples over a uniform grid."""

    grid: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares line through (ln size, ln value) pairs."""

    exponent: float
    intercept: float
    r_squared: float
    points: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class ScalingRow:
    n: int
    size: int
    position: float
    magnitude: float


@dataclass(frozen=True)
class ScalingReport:
    model: str
    measure: str
    critical: float
    rows: tuple[ScalingRow, ...]
    magnitude_fit: ScalingFit
    position_fit: ScalingFit


def numeric_derivative(values, grid) -> DerivativeCurve:
    """Central differences on a uniform grid, one-sided at the two ends."""
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    if grid.ndim != 1 or grid.shape != values.shape:
        raise DomainError(f"grid and values must be matching 1-D arrays, got {grid.shape} vs {values.shape}")
    if grid.size < 3:
        raise DomainError(f"need at least 3 samples, got {grid.size}")
    spacing = np.diff(grid)
    if np.abs(spacing - spacing[0]).max() > 1e-12:
        raise NonUniformGrid(f"grid spacing varies by {np.abs(spacing - spacing[0]).max():.3e}")
    if spacing[0] <= 0.0:
        raise NonUniformGrid("grid must be strictly increasing")
    return DerivativeCurve(grid, np.gradient(values, spacing[0], edge_order=1))


def find_extremum(curve: DerivativeCurve, kind: str = "min") -> tuple[float, float]:
    """Grid extremum refined by a parabola through the three bracketing points.

    Raises ExtremumAtBoundary when the winning sample is the first or last
    point, since the parabola then has nothing to bracket.
    """
    if kind == "min":
        idx = int(np.argmin(curve.values))
    elif kind == "max":
        idx = int(np.argmax(curve.values))
    else:
        raise DomainError(f"kind must be 'min' or 'max', got {kind!r}")
    if idx == 0 or idx == curve.grid.size - 1:
        raise ExtremumAtBoundary(f"extremum at grid index {idx} of {curve.grid.size}")
    y0, y1, y2 = curve.values[idx - 1 : idx + 2]
    h = curve.grid[1] - curve.grid[0]
    denom = y0 - 2.0 * y1 + y2
    if denom == 0.0:  # locally flat; the sample itself is the best estimate
        return float(curve.grid[idx]), float(y1)
    position = float(curve.grid[idx] + 0.5 * h * (y0 - y2) / denom)
    value = float(y1 - (y0 - y2) ** 2 / (8.0 * denom))
    return position, value


def loglog_fit(points) -> ScalingFit:
    """Power-law fit value = C * size^exponent via least squares in ln-ln space."""
    pts = [(float(n), float(v)) for n, v in points]
    if len(pts) < 3:
        raise DomainError(f"need at least 3 points for a fit, got {len(pts)}")
    if not all(0.0 < n < np.inf and 0.0 < v < np.inf for n, v in pts):
        raise NonPositiveValue(f"log-log fit requires finite positive data, got {pts}")
    ln_n = np.log([n for n, _ in pts])
    ln_v = np.log([v for _, v in pts])
    slope, intercept = np.polyfit(ln_n, ln_v, 1)
    residuals = ln_v - (slope * ln_n + intercept)
    ss_res = float(np.dot(residuals, residuals))
    centered = ln_v - ln_v.mean()
    ss_tot = float(np.dot(centered, centered))
    if ss_tot == 0.0:
        r_squared = 1.0 if ss_res < 1e-24 else 0.0
    else:
        r_squared = 1.0 - ss_res / ss_tot
    return ScalingFit(float(slope), float(intercept), r_squared, tuple(pts))


def derivative_extremum(
    model: str,
    measure: str,
    n: int,
    lo: float,
    hi: float,
    points: int,
    kind: str,
    critical: float,
    refine_passes: int,
) -> tuple[float, float]:
    """Locate the derivative extremum of one measure curve at iteration n.

    A coarse pass over [lo, hi] is followed by refine_passes re-grids over a
    window of width 10 * |critical - estimate| centred on the estimate, which
    resolves the sharpening extremum without a globally dense grid.
    """
    if refine_passes < 0:
        raise DomainError(f"refine_passes must be >= 0, got {refine_passes}")
    if not np.isfinite(critical):
        raise DomainError(f"critical point must be finite, got {critical}")

    def locate(a: float, b: float) -> tuple[float, float]:
        table = sweep(model, a, b, points, [n], measures=[measure])
        curve = numeric_derivative(table.values[0, :, 0], table.grid)
        return find_extremum(curve, kind)

    position, value = locate(lo, hi)
    for _ in range(refine_passes):
        width = 10.0 * abs(critical - position)
        if width == 0.0:
            break
        a = max(position - width / 2.0, lo, 0.0)
        b = min(position + width / 2.0, hi)
        if not a < b:
            break
        position, value = locate(a, b)
    return position, value


def scaling_report(
    model: str,
    measure: str = "chsh_max",
    iterations=range(2, 8),
    lo: float = 0.5,
    hi: float = 1.5,
    points: int = 2001,
    kind: str = "min",
    critical: float = CRITICAL_POINT,
    refine_passes: int = 2,
) -> ScalingReport:
    """Extremum magnitude and critical-offset power laws across iterations.

    Iterations 0 and 1 are pre-asymptotic and excluded by the default range;
    pass them explicitly to include them.
    """
    if measure not in MEASURE_NAMES:
        raise DomainError(f"unknown measure {measure!r}")
    its = sorted({iteration_depth(n) for n in iterations})  # refused at the first bad depth
    if len(its) < 3:
        raise DomainError(f"need at least 3 iteration depths for the fits, got {its}")
    rows = []
    for n in its:
        position, value = derivative_extremum(
            model, measure, n, lo, hi, points, kind, critical, refine_passes
        )
        rows.append(ScalingRow(n, effective_size(n), position, abs(value)))
    magnitude_fit = loglog_fit([(r.size, r.magnitude) for r in rows])
    offsets = [(r.size, abs(critical - r.position)) for r in rows]
    position_fit = loglog_fit(offsets)
    return ScalingReport(model, measure, critical, tuple(rows), magnitude_fit, position_fit)
