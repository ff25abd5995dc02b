"""Independent numeric cross-checks for the closed-form results.

Everything here recomputes quantities from dense matrices: a dependency-free
cyclic Jacobi eigensolver, a partial trace over the middle site of a
three-site ket, a grid+refinement brute-force search for quantum discord, and
the CHSH maximum from the least eigenvalue of T^T T (T the dense state's
Pauli correlation matrix).  None of it reuses the analytic X-state
expressions it is meant to check, and only ``verify`` and the tests use it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotSymmetric
from .xstate import XState, xstate_to_matrix

_LN2 = np.log(2.0)
_JACOBI_TOL = 1e-12  # off-diagonal Frobenius norm at which a Jacobi solve stops
_DISCORD_COARSE = 90  # polar samples of the discord search; azimuth gets twice as many

_PAULIS = np.array([
    [[1.0, 0.0], [0.0, 1.0]],
    [[0.0, 1.0], [1.0, 0.0]],
    [[0.0, -1.0j], [1.0j, 0.0]],
    [[1.0, 0.0], [0.0, -1.0]],
])
# _PAULI_PRODUCTS[mu, nu] = sigma_mu (x) sigma_nu on two qubits, first qubit most significant
_PAULI_PRODUCTS = np.einsum("mac,nbd->mnabcd", _PAULIS, _PAULIS).reshape(4, 4, 4, 4)


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues ascending; eigenvectors as matching columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def diag_symmetric(m, max_sweeps: int = 100) -> EigenDecomposition:
    """Cyclic Jacobi diagonalization of a small real symmetric matrix.

    Sweeps Givens rotations over all (p, q) pairs until the off-diagonal
    Frobenius norm drops below 1e-12.  Quadratically convergent; intended for
    n <= 8 blocks where a hand-rolled solver stays trivially auditable.  The
    rotations run on Python float lists: at this size numpy's per-call
    overhead would cost more than the arithmetic.
    """
    a = np.array(m, dtype=float, copy=True)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSymmetric(f"expected a square matrix, got shape {a.shape}")
    if not np.abs(a - a.T).max() <= 1e-10:  # NaN fails it too
        raise NotSymmetric("matrix is not symmetric within 1e-10")
    n = a.shape[0]
    rows = a.tolist()
    vt = np.eye(n).tolist()  # vt[k] is eigenvector column k
    skip = _JACOBI_TOL / (n * n)
    for _ in range(max_sweeps):
        off = math.sqrt(sum(x * x for i, row in enumerate(rows)
                            for j, x in enumerate(row) if i != j))
        if off < _JACOBI_TOL:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = rows[p][q]
                if abs(apq) < skip:
                    continue
                theta = 0.5 * (rows[q][q] - rows[p][p]) / apq
                if theta != 0:
                    t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                else:
                    t = 1.0
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                for row in rows:
                    x, y = row[p], row[q]
                    row[p], row[q] = c * x - s * y, s * x + c * y
                for vecs in (rows, vt):
                    xs, ys = vecs[p], vecs[q]
                    vecs[p] = [c * x - s * y for x, y in zip(xs, ys)]
                    vecs[q] = [s * x + c * y for x, y in zip(xs, ys)]
    else:
        raise RuntimeError("Jacobi sweep limit reached without convergence")
    diag = np.array([rows[k][k] for k in range(n)])
    order = np.argsort(diag, kind="stable")
    return EigenDecomposition(diag[order], np.array(vt).T[:, order])


def partial_trace_mid(ket) -> np.ndarray:
    """Trace out the middle site of a three-qubit ket.

    Basis convention: |s1 s2 s3> with site 1 the most significant bit and
    spin-up = 0.  Returns the 4x4 reduced matrix on sites (1, 3).
    """
    psi = np.asarray(ket).reshape(2, 2, 2)
    rho = np.einsum("abc,dbe->acde", psi, psi.conj())
    return rho.reshape(4, 4)


def _pauli_tensor(rho) -> np.ndarray:
    """R[mu, nu] = tr(rho sigma_mu x sigma_nu), Pauli index 0 the identity."""
    return np.einsum("ab,mnba->mn", rho, _PAULI_PRODUCTS).real


def _xlogx(x: np.ndarray) -> np.ndarray:
    """x ln x elementwise, 0 where x <= 0 (rounding can leave tiny negatives)."""
    return x * np.log(x, out=np.zeros_like(x), where=x > 0.0)


def _entropy_bits(values) -> float:
    return float(-_xlogx(np.asarray(values, dtype=float)).sum() / _LN2)


def _conditional_coefficients(rho, side: str) -> np.ndarray:
    """Half the Pauli tensor of rho, the measured qubit's index first."""
    tensor = 0.5 * _pauli_tensor(rho)
    return tensor if side == "a" else tensor.T


def _avg_conditional_entropy(coeffs, theta, phi):
    """Mean post-measurement entropy sum_k p_k S(rho_k) over broadcast theta, phi.

    coeffs comes from _conditional_coefficients.  Measuring along n leaves the
    other qubit in M_+- = (1/2) sum_nu c_nu sigma_nu with
    c = coeffs[0] +- n . coeffs[1:], so p = c_0, the eigenvalues are
    (c_0 +- |c_vec|) / 2 and p S(M / p) = p ln p - sum lambda ln lambda.
    Real arithmetic throughout, valid for any Hermitian rho.
    """
    sin_t, cos_t, cos_p, sin_p = np.sin(theta), np.cos(theta), np.cos(phi), np.sin(phi)
    shift = [sin_t * (cos_p * bx + sin_p * by) + cos_t * bz for bx, by, bz in coeffs[1:].T]
    total = 0.0
    for sgn in (1.0, -1.0):
        p, x, y, z = (a + sgn * d for a, d in zip(coeffs[0], shift))
        radius = np.sqrt(x * x + y * y + z * z)
        total = total + _xlogx(p) - _xlogx((p + radius) / 2.0) - _xlogx((p - radius) / 2.0)
    return total / _LN2


def brute_force_discord(s: XState, side: str = "a") -> tuple[float, tuple[float, float]]:
    """Quantum discord by direct minimization over projective measurements.

    Coarse 90 x 180 theta x phi grid over the antipodal-reduced hemisphere,
    followed by 4 local 19 x 19 re-grids shrinking the window by a factor of
    10 each pass.  Returns the discord value and the optimal measurement axis
    as (theta, phi).
    """
    rho = xstate_to_matrix(s)
    coeffs = _conditional_coefficients(rho, side)
    # the measured qubit's marginal is (1/2)(I + r.sigma) with r = 2 coeffs[1:, 0]
    radius = float(np.linalg.norm(coeffs[1:, 0]))
    s_meas = _entropy_bits([coeffs[0, 0] + radius, coeffs[0, 0] - radius])
    s_ab = _entropy_bits(diag_symmetric(rho).eigenvalues)

    theta = np.linspace(0.0, np.pi / 2.0, _DISCORD_COARSE)
    phi = np.linspace(0.0, 2.0 * np.pi, 2 * _DISCORD_COARSE, endpoint=False)
    grid = _avg_conditional_entropy(coeffs, theta[:, None], phi)
    i, j = np.unravel_index(int(np.argmin(grid)), grid.shape)
    best_t, best_p, best = float(theta[i]), float(phi[j]), float(grid[i, j])
    win_t, win_p = theta[1] - theta[0], phi[1] - phi[0]
    for _ in range(4):
        theta = np.linspace(best_t - win_t, best_t + win_t, 19)
        phi = np.linspace(best_p - win_p, best_p + win_p, 19)
        grid = _avg_conditional_entropy(coeffs, theta[:, None], phi)
        i, j = np.unravel_index(int(np.argmin(grid)), grid.shape)
        if grid[i, j] < best:
            best_t, best_p, best = float(theta[i]), float(phi[j]), float(grid[i, j])
        win_t /= 10.0
        win_p /= 10.0
    if best_t < 0.0:  # (-theta, phi) names the same axis as (theta, phi + pi)
        best_t, best_p = -best_t, best_p + np.pi
    return s_meas - s_ab + best, (best_t, best_p % (2.0 * np.pi))


def brute_force_chsh(s: XState) -> float:
    """Maximal CHSH expectation from the dense state's correlation matrix.

    With T[i, j] = tr(rho sigma_i x sigma_j) and M = T^T T, the maximum over
    all detector settings is 2 sqrt(tr M - lambda_min(M)), twice the root of
    the sum of M's two largest eigenvalues (Horodecki, Horodecki & Horodecki,
    PLA 200, 340 (1995)).  lambda_min comes from the Jacobi solver, so the value is exact
    to rounding for any M, not only for the diagonal M of an X state.
    """
    t = _pauli_tensor(xstate_to_matrix(s))[1:, 1:]
    m = t.T @ t
    least = diag_symmetric(m).eigenvalues[0]
    return 2.0 * float(np.sqrt(max(np.trace(m) - least, 0.0)))
