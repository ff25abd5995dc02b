"""Map iteration, fixed-point pinning, and grid sweeps."""

import numpy as np
import pytest

from qrgflow import (
    ITERATION_CAP,
    MODELS,
    DomainError,
    XXZParams,
    XYParams,
    advance,
    chsh_max,
    effective_size,
    gamma_of_g,
    iterate,
    measure_all,
    sweep,
    xxz_rho13,
    xy_rho13,
)


def test_effective_size_geometric():
    assert [effective_size(n) for n in range(4)] == [3, 9, 27, 81]
    assert effective_size(12) == 3**13


def test_effective_size_validation():
    with pytest.raises(DomainError):
        effective_size(-1)
    with pytest.raises(DomainError):
        effective_size(2.5)
    with pytest.raises(DomainError):
        effective_size(True)


def test_advance_pins_converged_parameters():
    params = XXZParams(1.0, 1.0 - 1e-15)
    assert advance(params).delta == 1.0
    near_sink = XYParams(1.0, 1.0 - 1e-15)
    assert advance(near_sink).gamma == 1.0


def test_iterate_structure():
    traj = iterate(XXZParams(1.0, 0.5), 6)
    assert traj.model == "xxz"
    assert len(traj.steps) == 7
    assert [s.n for s in traj.steps] == list(range(7))
    assert [s.size for s in traj.steps] == [3**(n + 1) for n in range(7)]
    assert traj.steps[0].params == traj.initial


def test_iterate_respects_cap():
    with pytest.raises(DomainError):
        iterate(XXZParams(1.0, 0.5), ITERATION_CAP + 1)
    traj = iterate(XXZParams(1.0, 0.5), ITERATION_CAP + 1, cap=None)
    assert len(traj.steps) == ITERATION_CAP + 2


def test_critical_point_is_invariant():
    traj = iterate(XXZParams(1.0, 1.0), 10)
    assert all(s.params.delta == 1.0 for s in traj.steps)


def test_attracted_flow_reaches_sink_exactly():
    # contraction is ~1/2 per step, so the 1e-14 snap needs ~47 steps
    traj = iterate(XXZParams(1.0, 0.5), 60, cap=None)
    assert traj.steps[-1].params.delta == 0.0  # snapped once within 1e-14
    xy = iterate(XYParams(1.0, gamma_of_g(2.0)), 25)
    assert xy.steps[-1].params.gamma == 1.0


def test_divergent_flow_is_finite_valued():
    traj = iterate(XXZParams(1.0, 1.5), 12)
    last = traj.steps[-1]
    assert last.params.delta == float("inf")
    assert last.params.j == 0.0
    assert last.measures.chsh_max == pytest.approx(2.0, abs=1e-12)
    assert np.isfinite(last.measures.qd_optimal)


def test_trajectory_measures_match_direct_evaluation():
    traj = iterate(XXZParams(1.0, 0.8), 4)
    for step in traj.steps:
        direct = measure_all(xxz_rho13(step.params.delta))
        assert step.measures.chsh_max == direct.chsh_max
        assert step.measures.concurrence == direct.concurrence


def test_sweep_table_shape_and_grid():
    table = sweep("xxz", "delta", 0.0, 2.5, 11, [0, 2, 5], measures=["chsh_max", "gd"])
    assert table.values.shape == (3, 11, 2)
    assert table.grid[0] == 0.0 and table.grid[-1] == 2.5
    assert table.iterations == (0, 2, 5)
    assert table.measures == ("chsh_max", "gd")


def test_sweep_values_match_iterated_states():
    table = sweep("xxz", "delta", 0.2, 1.4, 4, [0, 3], measures=["chsh_max"])
    for j, delta in enumerate(table.grid):
        traj = iterate(XXZParams(1.0, float(delta)), 3)
        assert table.values[0, j, 0] == pytest.approx(
            chsh_max(xxz_rho13(delta)), abs=1e-15
        )
        assert table.values[1, j, 0] == pytest.approx(
            traj.steps[3].measures.chsh_max, abs=1e-15
        )
    # The float flow of sweep matches the record flow of iterate bit for bit at
    # every depth.  The grids hold the fixed points delta = 0, 1 and g = 0, 1,
    # XY starts g >= 19 that snap onto gamma = 1, and the Neel start
    # delta = 2.5, which reaches 2.2e122 at n = 6.
    for name, lo, hi, points in (("xxz", 0.0, 2.5, 11), ("xy", 0.0, 19.0, 20)):
        model = MODELS[name]
        table = sweep(name, model.axis, lo, hi, points, range(7), measures=["chsh_max"])
        for j, axis_value in enumerate(table.grid):
            start = model.params(1.0, model.coupling_of_axis(float(axis_value)))
            traj = iterate(start, 6)
            for i, step in enumerate(traj.steps):
                flowed = getattr(step.params, model.coupling)
                assert table.couplings[i, j].hex() == flowed.hex()
                assert table.values[i, j, 0] == step.measures.chsh_max
    assert table.couplings[-1, -1] == 1.0


def test_sweep_xy_axis_is_plotting_variable():
    table = sweep("xy", "g", 0.5, 2.0, 4, [0], measures=["concurrence"])
    for j, g in enumerate(table.grid):
        state = xy_rho13(gamma_of_g(float(g)))
        assert table.values[0, j, 0] == pytest.approx(
            measure_all(state).concurrence, abs=1e-15
        )


def test_sweep_validation():
    with pytest.raises(DomainError):
        sweep("xxz", "g", 0.0, 1.0, 5, [0])  # axis belongs to the other model
    with pytest.raises(DomainError):
        sweep("xy", "delta", 0.0, 1.0, 5, [0])
    with pytest.raises(DomainError):
        sweep("xxz", "delta", 1.0, 1.0, 5, [0])  # empty range
    with pytest.raises(DomainError):
        sweep("xxz", "delta", 0.0, 1.0, 1, [0])  # too few points
    with pytest.raises(DomainError):
        sweep("xxz", "delta", 0.0, 1.0, 5, [])
    with pytest.raises(DomainError):
        sweep("xxz", "delta", 0.0, 1.0, 5, [0], measures=["bogus"])
    with pytest.raises(DomainError):
        sweep("xxz", "delta", 0.0, 1.0, 5, [ITERATION_CAP + 1])
