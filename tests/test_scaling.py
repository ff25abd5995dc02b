"""Derivative curves, extremum location, and log-log power-law fits."""

import numpy as np
import pytest

from qrgflow import (
    DerivativeCurve,
    DomainError,
    ExtremumAtBoundary,
    NonPositiveValue,
    NonUniformGrid,
    derivative_extremum,
    find_extremum,
    loglog_fit,
    numeric_derivative,
    scaling_report,
)


def test_numeric_derivative_quadratic_exact_inside():
    grid = np.linspace(0.0, 2.0, 21)
    curve = numeric_derivative(grid**2, grid)
    # central differences are exact for quadratics away from the ends
    assert np.abs(curve.values[1:-1] - 2.0 * grid[1:-1]).max() < 1e-12
    assert curve.grid is not None


def test_numeric_derivative_validation():
    with pytest.raises(NonUniformGrid):
        numeric_derivative([1.0, 2.0, 4.0], [0.0, 1.0, 3.0])
    with pytest.raises(DomainError):
        numeric_derivative([1.0, 2.0], [0.0, 1.0])
    with pytest.raises(DomainError):
        numeric_derivative([1.0, 2.0, 3.0], [[0.0, 1.0, 2.0]])


def test_find_extremum_parabola_vertex():
    grid = np.linspace(-1.0, 3.0, 41)
    curve = DerivativeCurve(grid, (grid - 0.9337) ** 2 + 0.25)
    position, value = find_extremum(curve, kind="min")
    # three-point refinement is exact on a parabola
    assert position == pytest.approx(0.9337, abs=1e-12)
    assert value == pytest.approx(0.25, abs=1e-12)


def test_find_extremum_max_kind():
    grid = np.linspace(0.0, np.pi, 101)
    position, value = find_extremum(DerivativeCurve(grid, np.sin(grid)), "max")
    assert position == pytest.approx(np.pi / 2.0, abs=1e-3)
    assert value == pytest.approx(1.0, abs=1e-6)


def test_find_extremum_boundary_raises():
    grid = np.linspace(0.0, 1.0, 11)
    curve = numeric_derivative(grid**2, grid)
    with pytest.raises(ExtremumAtBoundary):
        find_extremum(curve, kind="max")
    with pytest.raises(DomainError):
        find_extremum(curve, kind="saddle")


def test_loglog_fit_exact_power_law():
    sizes = [3.0**k for k in range(2, 9)]
    fit = loglog_fit([(n, 5.0 * n**2) for n in sizes])
    assert fit.exponent == pytest.approx(2.0, abs=1e-12)
    assert fit.intercept == pytest.approx(np.log(5.0), abs=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_loglog_fit_inverse_law():
    fit = loglog_fit([(n, 2.0 / n) for n in (9, 27, 81, 243)])
    assert fit.exponent == pytest.approx(-1.0, abs=1e-12)


def test_loglog_fit_validation():
    with pytest.raises(DomainError):
        loglog_fit([(1.0, 1.0), (2.0, 2.0)])
    with pytest.raises(NonPositiveValue):
        loglog_fit([(1.0, 1.0), (2.0, 0.0), (3.0, 3.0)])
    with pytest.raises(NonPositiveValue):
        loglog_fit([(-1.0, 1.0), (2.0, 2.0), (3.0, 3.0)])
    for bad in (float("nan"), float("inf")):
        with pytest.raises(NonPositiveValue):
            loglog_fit([(27.0, bad), (81.0, 1.0), (243.0, 2.0)])
        with pytest.raises(NonPositiveValue):
            loglog_fit([(bad, 1.0), (81.0, 1.0), (243.0, 2.0)])


def test_derivative_extremum_moves_toward_critical():
    positions = [
        derivative_extremum("xy", "chsh_max", n, 0.5, 1.5, 401, "min", 1.0, 2)[0]
        for n in (2, 3, 4)
    ]
    offsets = [abs(1.0 - p) for p in positions]
    assert offsets[0] > offsets[1] > offsets[2]


def test_scaling_report_structure():
    report = scaling_report("xy", "chsh_max", iterations=range(2, 5), points=401)
    assert report.model == "xy" and report.measure == "chsh_max"
    assert [row.n for row in report.rows] == [2, 3, 4]
    assert [row.size for row in report.rows] == [27, 81, 243]
    assert all(row.magnitude > 0 for row in report.rows)
    # sharper and closer with depth
    mags = [row.magnitude for row in report.rows]
    assert mags[0] < mags[1] < mags[2]
    assert report.magnitude_fit.r_squared > 0.99
    assert report.position_fit.r_squared > 0.99


def test_scaling_report_validation():
    with pytest.raises(DomainError):
        scaling_report("xy", "bogus")
    with pytest.raises(DomainError):
        scaling_report("xy", "chsh_max", iterations=[2, 3])
