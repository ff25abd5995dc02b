"""Brute-force cross-check machinery: Jacobi solver, partial trace, searches."""

import numpy as np
import pytest

from qrgflow import (
    NotSymmetric,
    XState,
    brute_force_chsh,
    brute_force_discord,
    chsh_max,
    diag_symmetric,
    discord_optimal,
    partial_trace_mid,
    random_xstates,
    xstate_to_matrix,
    xxz_rho13,
)
from qrgflow.measures import _pauli_guard
from qrgflow.oracle import _correlation_matrix, _unit_vectors

BELL = XState(0.5, 0.0, 0.0, 0.5, 0.5, 0.0)


def test_jacobi_two_by_two():
    eig = diag_symmetric(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert eig.eigenvalues == pytest.approx([-1.0, 1.0], abs=1e-14)


def test_jacobi_already_diagonal():
    eig = diag_symmetric(np.diag([3.0, 1.0, 2.0]))
    assert eig.eigenvalues == pytest.approx([1.0, 2.0, 3.0], abs=1e-15)


def test_jacobi_reconstruction_random():
    rng = np.random.default_rng(23)
    for _ in range(25):
        raw = rng.standard_normal((8, 8))
        m = (raw + raw.T) / 2.0
        eig = diag_symmetric(m)
        assert np.all(np.diff(eig.eigenvalues) >= -1e-12)
        v = eig.eigenvectors
        assert np.abs(v @ np.diag(eig.eigenvalues) @ v.T - m).max() < 1e-10
        assert np.abs(v.T @ v - np.eye(8)).max() < 1e-10


def test_jacobi_rejects_asymmetric_input():
    with pytest.raises(NotSymmetric):
        diag_symmetric(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NotSymmetric):
        diag_symmetric(np.zeros((2, 3)))


def test_partial_trace_product_ket():
    ket = np.zeros(8)
    ket[0] = 1.0  # |up up up>
    rho = partial_trace_mid(ket)
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    assert np.abs(rho - expected).max() < 1e-15


def test_partial_trace_ghz_kills_coherence():
    ket = np.zeros(8)
    ket[0] = ket[7] = 1.0 / np.sqrt(2.0)
    rho = partial_trace_mid(ket)
    assert rho[0, 0] == pytest.approx(0.5, abs=1e-15)
    assert rho[3, 3] == pytest.approx(0.5, abs=1e-15)
    assert abs(rho[0, 3]) < 1e-15  # middle-site overlap removes it


def test_partial_trace_w_state():
    # single-excitation state: reduced matrix keeps the inner coherence
    ket = np.zeros(8)
    ket[1] = ket[2] = ket[4] = 1.0 / np.sqrt(3.0)
    rho = partial_trace_mid(ket)
    third = 1.0 / 3.0
    assert rho[0, 0] == pytest.approx(third, abs=1e-15)
    assert rho[1, 1] == pytest.approx(third, abs=1e-15)
    assert rho[2, 2] == pytest.approx(third, abs=1e-15)
    assert rho[1, 2] == pytest.approx(third, abs=1e-15)
    assert rho[3, 3] == 0.0
    assert np.trace(rho) == pytest.approx(1.0, abs=1e-14)


def test_partial_trace_is_density_matrix():
    rng = np.random.default_rng(29)
    for _ in range(20):
        ket = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        ket /= np.linalg.norm(ket)
        rho = partial_trace_mid(ket)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.abs(rho - rho.conj().T).max() < 1e-14


def test_brute_discord_bell():
    value, _ = brute_force_discord(BELL, coarse=30, refine_iters=3)
    assert value == pytest.approx(1.0, abs=1e-6)


def test_brute_discord_equatorial_optimum():
    value, direction = brute_force_discord(xxz_rho13(0.0))
    assert value == pytest.approx(0.412154161151989, abs=1e-6)
    assert direction.theta == pytest.approx(np.pi / 2.0, abs=1e-6)


def test_brute_discord_agrees_with_closed_form():
    guarded = 0
    states = random_xstates(120, seed=31)
    for s in states:
        guarded += _pauli_guard(s)
        for side in ("a", "b"):
            value, _ = brute_force_discord(s, side=side)
            closed, _ = discord_optimal(s, side=side)
            assert abs(value - closed) < 1e-4
    # both sides of the coherence guard are well represented
    assert guarded > 20 and len(states) - guarded > 20


def test_brute_chsh_known_states():
    assert brute_force_chsh(BELL) == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-6)
    assert brute_force_chsh(xxz_rho13(1.0)) == pytest.approx(
        2.0 * np.sqrt(2.0) / 3.0, abs=1e-6
    )
    classical = XState(0.5, 0.0, 0.0, 0.5, 0.0, 0.0)
    assert brute_force_chsh(classical) <= 2.0 + 1e-9


def test_brute_chsh_agrees_with_closed_form():
    for s in random_xstates(40, seed=37):
        assert abs(brute_force_chsh(s) - chsh_max(s)) < 1e-4


def _pair_search_chsh(s, coarse=24, refine_iters=4):
    """Reference search over detector pairs (b, b'), a, a' maximized exactly.

    Every value it returns is attained by real settings, so it can only
    undershoot the true maximum: a one-sided bound on the closed form.
    """
    t = _correlation_matrix(xstate_to_matrix(s).astype(complex))

    def pairs(b1, b2):
        tb1, tb2 = b1 @ t.T, b2 @ t.T
        n1 = np.sum(tb1 * tb1, axis=1)[:, None]
        n2 = np.sum(tb2 * tb2, axis=1)[None, :]
        cross = tb1 @ tb2.T
        return (np.sqrt(np.maximum(n1 + n2 + 2.0 * cross, 0.0))
                + np.sqrt(np.maximum(n1 + n2 - 2.0 * cross, 0.0)))

    theta = np.linspace(0.0, np.pi, coarse)
    phi = np.linspace(0.0, 2.0 * np.pi, 2 * coarse, endpoint=False)
    vecs, th, ph = _unit_vectors(theta, phi)
    vals = pairs(vecs, vecs)
    k = np.unravel_index(int(np.argmax(vals)), vals.shape)
    best = float(vals[k])
    ang = [th[k[0]], ph[k[0]], th[k[1]], ph[k[1]]]
    win_t, win_p = theta[1] - theta[0], phi[1] - phi[0]
    for _ in range(refine_iters):
        v1, th1, ph1 = _unit_vectors(np.linspace(ang[0] - win_t, ang[0] + win_t, 9),
                                     np.linspace(ang[1] - win_p, ang[1] + win_p, 9))
        v2, th2, ph2 = _unit_vectors(np.linspace(ang[2] - win_t, ang[2] + win_t, 9),
                                     np.linspace(ang[3] - win_p, ang[3] + win_p, 9))
        vals = pairs(v1, v2)
        k = np.unravel_index(int(np.argmax(vals)), vals.shape)
        if vals[k] > best:
            best = float(vals[k])
            ang = [th1[k[0]], ph1[k[0]], th2[k[1]], ph2[k[1]]]
        win_t /= 10.0
        win_p /= 10.0
    return best


def test_pair_search_never_exceeds_closed_form():
    for s in random_xstates(40, seed=41) + [random_xstates(20, seed=1554290170)[9]]:
        assert _pair_search_chsh(s) <= chsh_max(s) + 1e-12


def test_brute_chsh_exact_on_pair_search_failure():
    # the (b, b') pair search undershoots this state by 1.003e-4
    s = random_xstates(20, seed=1554290170)[9]
    assert abs(brute_force_chsh(s) - chsh_max(s)) < 1e-4
