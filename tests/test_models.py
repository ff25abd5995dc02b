"""Coupling maps, ground doublets, reduced states, and fixed points."""

import numpy as np
import pytest

from qrgflow import (
    MODELS,
    DomainError,
    XXZParams,
    XYParams,
    block_hamiltonian,
    diag_symmetric,
    fixed_points,
    g_of_gamma,
    gamma_of_g,
    partial_trace_mid,
    q_of_delta,
    reduced_state,
    xstate_to_matrix,
    xxz_rg_step,
    xxz_rho13,
    xy_rg_step,
    xy_rho13,
)


def test_q_values():
    assert q_of_delta(0.0) == pytest.approx(-np.sqrt(2.0), abs=1e-15)
    assert q_of_delta(1.0) == pytest.approx(-2.0, abs=1e-15)
    assert q_of_delta(2.0) == pytest.approx(-(1.0 + np.sqrt(3.0)), abs=1e-14)
    with pytest.raises(DomainError):
        q_of_delta(-0.5)
    with pytest.raises(DomainError):
        q_of_delta(float("nan"))


def test_xxz_step_at_special_points():
    j1, delta1 = xxz_rg_step(1.0, 1.0)
    assert delta1 == pytest.approx(1.0, abs=1e-15)  # q^2/4 = 1
    assert j1 == pytest.approx(4.0 / 9.0, abs=1e-15)
    j0, delta0 = xxz_rg_step(2.0, 0.0)
    assert delta0 == 0.0
    assert j0 == pytest.approx(1.0, abs=1e-15)  # factor 1/2 at q^2 = 2


def test_xxz_step_survives_divergent_coupling():
    j, delta = xxz_rg_step(0.5, float("inf"))
    assert delta == float("inf")
    assert j == 0.0


def test_xy_step_at_special_points():
    assert xy_rg_step(1.0, 0.0)[1] == 0.0
    assert xy_rg_step(1.0, 0.0)[0] == pytest.approx(0.5, abs=1e-15)
    assert xy_rg_step(1.0, 1.0)[1] == 1.0
    assert xy_rg_step(1.0, -1.0)[1] == -1.0
    assert xy_rg_step(1.0, 0.5)[1] == pytest.approx(1.625 / 1.75, abs=1e-15)


def test_xy_step_stays_in_domain():
    # repeated mapping from any start must never leave |gamma| <= 1
    j, gamma = 1.0, 1.0 / 3.0
    for _ in range(60):
        j, gamma = xy_rg_step(j, gamma)
        assert abs(gamma) <= 1.0


def test_param_validation():
    with pytest.raises(DomainError):
        XXZParams(-1.0, 0.5)
    with pytest.raises(DomainError):
        XXZParams(1.0, -0.5)
    with pytest.raises(DomainError):
        XYParams(1.0, 1.5)
    with pytest.raises(DomainError):
        XYParams(1.0, float("nan"))
    XXZParams(0.0, float("inf"))  # reachable by flows past the unstable point


def test_fixed_point_stability():
    assert fixed_points("xxz") == [(0.0, "stable"), (1.0, "unstable")]
    assert fixed_points("xy") == [
        (-1.0, "stable"),
        (0.0, "unstable"),
        (1.0, "stable"),
    ]
    with pytest.raises(DomainError):
        fixed_points("ising")


def test_map_slopes_at_fixed_points():
    # |d delta'/d delta| at 0 and 1: 1/2 (attracting) and 5/3 (repelling)
    h = 1e-7
    slope0 = (xxz_rg_step(1.0, h)[1] - 0.0) / h
    assert slope0 == pytest.approx(0.5, abs=1e-6)
    slope1 = (
        xxz_rg_step(1.0, 1.0 + h)[1]
        - xxz_rg_step(1.0, 1.0 - h)[1]
    ) / (2 * h)
    assert slope1 == pytest.approx(5.0 / 3.0, abs=1e-6)
    # XY slope at gamma = 0 is 3
    slope_g = (xy_rg_step(1.0, h)[1] - xy_rg_step(1.0, -h)[1]) / (2 * h)
    assert slope_g == pytest.approx(3.0, abs=1e-6)


@pytest.mark.parametrize("name, points", [
    ("xxz", [0.05, 0.4, 0.8, 1.3, 2.5, 7.0]),
    ("xy", [-0.9, -0.4, 0.2, 0.55, 0.95]),
])
def test_exact_map_slope_matches_central_difference(name, points):
    model = MODELS[name]
    h = 1e-6
    for c in points:
        up = model.step(1.0, c + h)[1]
        down = model.step(1.0, c - h)[1]
        assert model.slope(c) == pytest.approx((up - down) / (2.0 * h), rel=1e-7, abs=1e-8)


def test_critical_exponent_from_exact_slope():
    # 1/nu = ln f'(critical) / ln 3 for a block of three sites
    assert MODELS["xy"].slope(0.0) == 3.0
    assert np.log(MODELS["xy"].slope(0.0)) / np.log(3.0) == pytest.approx(1.0, abs=1e-12)
    xxz = np.log(MODELS["xxz"].slope(1.0)) / np.log(3.0)
    assert xxz == pytest.approx(np.log(5.0 / 3.0) / np.log(3.0), abs=1e-12)
    assert xxz == pytest.approx(0.46497, abs=1e-5)
    assert MODELS["xxz"].slope(0.0) == pytest.approx(0.5, abs=1e-15)
    assert MODELS["xy"].slope(1.0) == MODELS["xy"].slope(-1.0) == 0.0


@pytest.mark.parametrize("delta", [0.0, 0.3, 1.0, 1.7, 2.5])
def test_xxz_ground_doublet(delta):
    xxz = MODELS["xxz"]
    h = block_hamiltonian(xxz.bond(1.0, delta))
    e0 = xxz.energy(1.0, delta)
    first, second = xxz.ground_states(delta)
    for ket in (first, second):
        amp = ket.amplitudes
        assert np.linalg.norm(amp) == pytest.approx(1.0, abs=1e-12)
        assert np.abs(h @ amp - e0 * amp).max() < 1e-10
    eig = diag_symmetric(h)
    assert eig.eigenvalues[0] == pytest.approx(e0, abs=1e-10)
    assert eig.eigenvalues[1] == pytest.approx(e0, abs=1e-10)
    assert eig.eigenvalues[2] - eig.eigenvalues[1] > 1e-8


@pytest.mark.parametrize("gamma", [-1.0, -0.4, 0.0, 0.6, 1.0])
def test_xy_ground_doublet(gamma):
    xy = MODELS["xy"]
    h = block_hamiltonian(xy.bond(1.0, gamma))
    e0 = xy.energy(1.0, gamma)
    for ket in xy.ground_states(gamma):
        amp = ket.amplitudes
        assert np.linalg.norm(amp) == pytest.approx(1.0, abs=1e-12)
        assert np.abs(h @ amp - e0 * amp).max() < 1e-10
    eig = diag_symmetric(h)
    assert eig.eigenvalues[1] == pytest.approx(e0, abs=1e-10)
    assert eig.eigenvalues[2] - eig.eigenvalues[1] > 1e-8


def test_reduced_state_matches_partial_trace():
    for name, coupling in (("xxz", 0.8), ("xy", 0.35)):
        model = MODELS[name]
        first, _ = model.ground_states(coupling)
        numeric = partial_trace_mid(first.amplitudes)
        closed = xstate_to_matrix(reduced_state(model.params(1.0, coupling)))
        assert np.abs(numeric - closed).max() < 1e-12


def test_xxz_reduced_state_fields():
    s = xxz_rho13(1.0)  # q^2 = 4
    assert s.d1 == pytest.approx(4.0 / 6.0, abs=1e-15)
    assert s.d2 == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert s.d4 == 0.0 and s.a == 0.0
    assert s.b == pytest.approx(1.0 / 6.0, abs=1e-15)


def test_xxz_reduced_state_divergent_limit():
    s = xxz_rho13(float("inf"))
    assert (s.d1, s.d2, s.d3, s.d4) == (1.0, 0.0, 0.0, 0.0)


def test_xy_reduced_state_fields():
    gamma = 0.6
    s = xy_rho13(gamma)
    denom = 4.0 * (1.0 + gamma**2)
    assert s.d1 == pytest.approx(2.0 / denom, abs=1e-15)
    assert s.d4 == pytest.approx(2.0 * gamma**2 / denom, abs=1e-15)
    assert s.a == pytest.approx(2.0 * gamma / denom, abs=1e-15)
    assert s.b == 0.25
    # rank two with a flat nonzero spectrum
    from qrgflow import spectrum

    lam = spectrum(s)
    assert lam[0] == pytest.approx(0.5, abs=1e-12)
    assert lam[1] == pytest.approx(0.5, abs=1e-12)
    assert abs(lam[2]) < 1e-12 and abs(lam[3]) < 1e-12


def test_plotting_variable_maps():
    assert g_of_gamma(0.0) == 1.0
    assert gamma_of_g(1.0) == 0.0
    for g in (0.2, 1.0, 2.7):
        assert g_of_gamma(gamma_of_g(g)) == pytest.approx(g, abs=1e-12)
    with pytest.raises(DomainError):
        g_of_gamma(1.0)
    with pytest.raises(DomainError):
        gamma_of_g(-1.0)


def test_ground_energy_values():
    assert MODELS["xxz"].energy(1.0, 1.0) == pytest.approx(-1.0, abs=1e-15)
    assert MODELS["xy"].energy(1.0, 1.0) == pytest.approx(-1.0, abs=1e-14)
    assert MODELS["xy"].energy(2.0, 0.0) == pytest.approx(-np.sqrt(2.0), abs=1e-14)


def test_dispatch_rejects_unknown_params():
    with pytest.raises(DomainError):
        reduced_state(object())
