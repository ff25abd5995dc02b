"""Map iteration, fixed-point pinning, and grid sweeps."""

import warnings

import numpy as np
import pytest

from qrgflow import (
    ITERATION_CAP,
    MEASURE_NAMES,
    MODELS,
    DomainError,
    NotDensityMatrix,
    XState,
    XXZParams,
    XYParams,
    advance,
    chsh_max,
    concurrence,
    discord_optimal,
    discord_sigma_xy,
    discord_sigma_z,
    effective_size,
    gamma_of_g,
    geometric_discord,
    iterate,
    measure_all,
    mid,
    min_nonlocality,
    random_xstates,
    scaling_report,
    sweep,
    xxz_rho13,
    xy_rho13,
)
from qrgflow import flow
from qrgflow.measures import _Measures, evaluate

# Each sweep column against the per-state function of the same measure.
PER_STATE = {
    "concurrence": concurrence,
    "qd_optimal": lambda s: discord_optimal(s)[0],
    "qd_sigma_x": lambda s: discord_sigma_xy(s, "x"),
    "qd_sigma_y": lambda s: discord_sigma_xy(s, "y"),
    "qd_sigma_z": discord_sigma_z,
    "mid": mid,
    "gd": geometric_discord,
    "min": min_nonlocality,
    "chsh_max": chsh_max,
}
FIELDS = ("d1", "d2", "d3", "d4", "a", "b")


def _bits(value) -> str:
    """Exact bit pattern of a float, so that -0.0 and 0.0 differ too."""
    return float(value).hex()


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
    assert len(iterate(XXZParams(1.0, 0.5), ITERATION_CAP).steps) == ITERATION_CAP + 1


def test_critical_point_is_invariant():
    traj = iterate(XXZParams(1.0, 1.0), 10)
    assert all(s.params.delta == 1.0 for s in traj.steps)


def test_attracted_flow_reaches_sink_exactly():
    # contraction is ~1/2 per step, so the 1e-14 snap needs ~47 steps, past the cap
    params = XXZParams(1.0, 0.5)
    for _ in range(60):
        params = advance(params)
    assert params.delta == 0.0  # snapped once within 1e-14
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
    table = sweep("xxz", 0.0, 2.5, 11, [0, 2, 5], measures=["chsh_max", "gd"])
    assert table.values.shape == (3, 11, 2)
    assert table.grid[0] == 0.0 and table.grid[-1] == 2.5
    assert table.iterations == (0, 2, 5)
    assert table.measures == ("chsh_max", "gd")


def test_sweep_values_match_iterated_states():
    table = sweep("xxz", 0.2, 1.4, 4, [0, 3], measures=["chsh_max"])
    for j, delta in enumerate(table.grid):
        traj = iterate(XXZParams(1.0, float(delta)), 3)
        assert table.values[0, j, 0] == pytest.approx(
            chsh_max(xxz_rho13(delta)), abs=1e-15
        )
        assert table.values[1, j, 0] == pytest.approx(
            traj.steps[3].measures.chsh_max, abs=1e-15
        )
    # The array flow of sweep matches the float flow of iterate bit for bit at
    # every depth.  The grids hold the fixed points delta = 0, 1 and g = 0, 1,
    # XY starts g >= 19 that snap onto gamma = 1, and the Neel start
    # delta = 2.5, which reaches 2.2e122 at n = 6.
    for name, lo, hi, points in (("xxz", 0.0, 2.5, 11), ("xy", 0.0, 19.0, 20)):
        model = MODELS[name]
        table = sweep(name, lo, hi, points, range(7), measures=["chsh_max"])
        for j, axis_value in enumerate(table.grid):
            start = model.params(1.0, model.coupling_of_axis(float(axis_value)))
            traj = iterate(start, 6)
            for i, step in enumerate(traj.steps):
                flowed = getattr(step.params, model.coupling)
                assert table.couplings[i, j].hex() == flowed.hex()
                assert table.values[i, j, 0] == step.measures.chsh_max
    assert table.couplings[-1, -1] == 1.0


def test_sweep_xy_axis_is_plotting_variable():
    table = sweep("xy", 0.5, 2.0, 4, [0], measures=["concurrence"])
    assert table.axis == "g"
    for j, g in enumerate(table.grid):
        state = xy_rho13(gamma_of_g(float(g)))
        assert table.values[0, j, 0] == pytest.approx(
            measure_all(state).concurrence, abs=1e-15
        )


def test_sweep_validation():
    with pytest.raises(DomainError):
        sweep("xxz", 1.0, 1.0, 5, [0])  # empty range
    with pytest.raises(DomainError):
        sweep("xxz", 0.0, 1.0, 1, [0])  # too few points
    with pytest.raises(DomainError):
        sweep("xxz", 0.0, 1.0, 5, [])
    with pytest.raises(DomainError):
        sweep("xxz", 0.0, 1.0, 5, [0], measures=["bogus"])
    with pytest.raises(DomainError):
        sweep("xxz", 0.0, 1.0, 5, [ITERATION_CAP + 1])


def test_depths_are_refused_as_they_are_read():
    def depths(first):
        yield first
        raise AssertionError("a depth after the first out-of-range one was read")

    for bad in (-1, ITERATION_CAP + 1):
        with pytest.raises(DomainError):
            sweep("xxz", 0.0, 1.0, 5, depths(bad))
        with pytest.raises(DomainError):
            scaling_report("xy", iterations=depths(bad))


@pytest.mark.parametrize(
    "name, hi, points, depths",
    [
        ("xxz", 2.5, 41, range(7)),  # step 1/16 holds delta = 0 and 1 exactly
        ("xy", 4.0, 33, range(7)),  # step 1/8 holds g = 0 and 1 exactly
        ("xxz", 2.5, 21, range(31)),  # the Neel side reaches delta = inf
    ],
)
def test_sweep_cells_equal_per_state_measures_bit_for_bit(name, hi, points, depths):
    model = MODELS[name]
    table = sweep(name, 0.0, hi, points, depths)
    assert {0.0, 1.0} <= set(table.grid.tolist())
    assert table.measures == MEASURE_NAMES
    if depths[-1] == 30:
        assert np.isinf(table.couplings[-1]).any()
    for i in range(len(table.iterations)):
        for j in range(points):
            state = model.edge_state(float(table.couplings[i, j]))
            for k, measure in enumerate(table.measures):
                expected = PER_STATE[measure](state)
                assert _bits(table.values[i, j, k]) == _bits(expected), (name, i, j, measure)


def test_batch_pass_equals_per_state_on_random_states():
    states = [XState(*(float(getattr(s, f)) for f in FIELDS)) for s in random_xstates(200, seed=3)]
    unguarded = sum(_Measures(s).unguarded for s in states)
    assert unguarded > 20 and len(states) - unguarded > 20  # both sides of the search
    batch = XState(*(np.array([getattr(s, f) for s in states]) for f in FIELDS))
    columns = evaluate(batch)
    for k, measure in enumerate(MEASURE_NAMES):
        assert columns[k].shape == (len(states),)
        for i, s in enumerate(states):
            assert _bits(columns[k][i]) == _bits(PER_STATE[measure](s)), (i, measure)


def test_batch_state_checks_every_cell():
    q = np.full(2, 0.25)
    XState(q, q, q, q, np.array([0.1, 0.25]), 0.0)
    with pytest.raises(NotDensityMatrix, match="outer coherence"):
        XState(q, q, q, q, np.array([0.1, 0.3]), 0.0)  # the second cell has a^2 > d1 d4
    with pytest.raises(NotDensityMatrix, match="sum to 1.1"):
        XState(q, q, q, q + np.array([0.0, 0.1]), 0.0, 0.0)


def test_neel_flow_raises_no_numpy_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = sweep("xxz", 0.0, 2.5, 50, range(31))
    assert np.isinf(table.couplings[-1, -1])
    assert np.isfinite(table.values).all()


def test_sweep_cell_limit_is_inclusive(monkeypatch):
    monkeypatch.setattr(flow, "MAX_SWEEP_CELLS", 63)
    table = sweep("xy", 0.0, 3.0, 3, range(7), measures=["gd", "min", "chsh_max"])  # 63 cells
    assert table.values.shape == (7, 3, 3)
    with pytest.raises(DomainError, match="exceeds the limit"):
        sweep("xy", 0.0, 3.0, 4, range(7), measures=["gd", "min", "chsh_max"])


def test_long_grids_flow_in_chunks(monkeypatch):
    whole = sweep("xxz", 0.0, 2.5, 23, range(4))
    monkeypatch.setattr(flow, "_CHUNK", 5)
    chunked = sweep("xxz", 0.0, 2.5, 23, range(4))
    assert chunked.values.tobytes() == whole.values.tobytes()
    assert chunked.couplings.tobytes() == whole.couplings.tobytes()
