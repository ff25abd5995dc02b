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
from qrgflow.measures import _Measures
from qrgflow.oracle import _avg_conditional_entropy, _conditional_coefficients, _pauli_tensor

BELL = XState(0.5, 0.0, 0.0, 0.5, 0.5, 0.0)


def test_jacobi_two_by_two():
    eig = diag_symmetric(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert eig.eigenvalues == pytest.approx([-1.0, 1.0], abs=1e-14)


def test_jacobi_already_diagonal():
    eig = diag_symmetric(np.diag([3.0, 1.0, 2.0]))
    assert eig.eigenvalues == pytest.approx([1.0, 2.0, 3.0], abs=1e-15)
    eig = diag_symmetric(np.array([[-2.5]]))
    assert eig.eigenvalues == pytest.approx([-2.5], abs=1e-15)
    assert np.array_equal(eig.eigenvectors, [[1.0]])


def test_jacobi_reconstruction_random():
    rng = np.random.default_rng(23)
    u = rng.standard_normal(8)
    degenerate = np.eye(8) + np.outer(u, u)  # eigenvalue 1 seven times over
    matrices = [degenerate]
    for _ in range(25):
        raw = rng.standard_normal((8, 8))
        matrices.append((raw + raw.T) / 2.0)
    for m in matrices:
        eig = diag_symmetric(m)
        assert np.all(np.diff(eig.eigenvalues) >= -1e-12)
        assert np.abs(eig.eigenvalues - np.linalg.eigvalsh(m)).max() < 1e-12
        v = eig.eigenvectors
        assert np.abs(v @ np.diag(eig.eigenvalues) @ v.T - m).max() < 1e-10
        assert np.abs(v.T @ v - np.eye(8)).max() < 1e-10
    with pytest.raises(RuntimeError, match="sweep limit"):
        diag_symmetric(matrices[1], max_sweeps=1)


def test_jacobi_rejects_asymmetric_input():
    with pytest.raises(NotSymmetric):
        diag_symmetric(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NotSymmetric):
        diag_symmetric(np.zeros((2, 3)))
    for nan_at in ((0, 0), (0, 1)):  # on and off the diagonal
        m = np.eye(2)
        m[nan_at] = m[nan_at[::-1]] = np.nan
        with pytest.raises(NotSymmetric):
            diag_symmetric(m)


def test_jacobi_least_eigenvalue_of_correlation_gram():
    # M = T^T T as the CHSH oracle builds it; 30% with a near-degenerate low pair.
    # A grid-and-window search over the plane normal misses lambda_min on 616 of
    # these matrices, by up to 3.6e-4.
    rng = np.random.default_rng(43)
    for k in range(2000):
        t = rng.uniform(-1.0, 1.0, (3, 3))
        if k % 10 < 3:
            q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            low = rng.uniform(0.0, 0.5)
            sv = np.sqrt([low, low + 10.0 ** rng.uniform(-9.0, -3.0), rng.uniform(0.6, 2.0)])
            t = np.diag(sv) @ q.T
        m = t.T @ t
        least = diag_symmetric(m).eigenvalues[0]
        assert abs(least - np.linalg.eigvalsh(m)[0]) < 1e-12


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


def _dense_conditional_entropy(rho, side, theta, phi):
    """sum_k p_k S(rho_k) bit by bit: project, trace out the measured qubit, eigvalsh."""
    n = np.array([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)])
    sigma = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    total = 0.0
    for sgn in (1.0, -1.0):
        proj = 0.5 * (np.eye(2) + sgn * np.einsum("i,iab->ab", n, sigma))
        op = np.kron(proj, np.eye(2)) if side == "a" else np.kron(np.eye(2), proj)
        post = (op @ rho @ op).reshape(2, 2, 2, 2)
        rest = np.einsum("abad->bd", post) if side == "a" else np.einsum("abcb->ac", post)
        lam = np.linalg.eigvalsh(rest)
        p = lam.sum()
        lam = lam[lam > 1e-300] / p
        total += -p * float(np.sum(lam * np.log2(lam)))
    return total


def test_conditional_entropy_kernel_matches_dense_projection():
    # general complex states, not X states: the kernel must not lean on the X pattern
    rng = np.random.default_rng(47)
    for k in range(20):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        if k % 4 == 0:
            g[:, 1:] *= 1e-3  # close to pure, so lambda_- of the outcomes nears 0
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        theta = rng.uniform(0.0, np.pi, 50)
        phi = rng.uniform(0.0, 2.0 * np.pi, 50)
        for side in ("a", "b"):
            kernel = _avg_conditional_entropy(_conditional_coefficients(rho, side), theta, phi)
            dense = [_dense_conditional_entropy(rho, side, t, f) for t, f in zip(theta, phi)]
            assert np.abs(kernel - dense).max() < 1e-12


def test_brute_discord_bell():
    value, _ = brute_force_discord(BELL)
    assert value == pytest.approx(1.0, abs=1e-6)


def test_brute_discord_equatorial_optimum():
    value, (theta, _) = brute_force_discord(xxz_rho13(0.0))
    assert value == pytest.approx(0.412154161151989, abs=1e-6)
    assert theta == pytest.approx(np.pi / 2.0, abs=1e-6)


def test_brute_discord_agrees_with_closed_form():
    guarded = 0
    states = random_xstates(120, seed=31)
    for s in states:
        guarded += not _Measures(s).unguarded
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


def _unit_vectors(theta, phi):
    th, ph = np.meshgrid(theta, phi, indexing="ij")
    vecs = np.stack(
        [np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], axis=-1
    ).reshape(-1, 3)
    return vecs, th.ravel(), ph.ravel()


def _pair_search_chsh(s, coarse=24, refine_iters=4):
    """Reference search over detector pairs (b, b'), a, a' maximized exactly.

    Every value it returns is attained by real settings, so it can only
    undershoot the true maximum: a one-sided bound on the closed form.
    """
    t = _pauli_tensor(xstate_to_matrix(s))[1:, 1:]

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
