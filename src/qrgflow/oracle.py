"""Independent numeric cross-checks for the closed-form results.

Everything here recomputes quantities from dense matrices: a dependency-free
cyclic Jacobi eigensolver, a partial trace over the middle site of a
three-site ket, and grid+refinement brute-force searches for quantum discord
and the CHSH maximum.  None of it reuses the analytic X-state expressions it
is meant to check, and only ``verify`` and the tests use it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotSymmetric
from .xstate import XState, xstate_to_matrix

_LN2 = np.log(2.0)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues ascending; eigenvectors as matching columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True)
class MeasurementDirection:
    """Projective measurement axis on the Bloch sphere."""

    theta: float
    phi: float


def diag_symmetric(m, tol: float = 1e-12, max_sweeps: int = 100) -> EigenDecomposition:
    """Cyclic Jacobi diagonalization of a small real symmetric matrix.

    Sweeps Givens rotations over all (p, q) pairs until the off-diagonal
    Frobenius norm drops below tol.  Quadratically convergent; intended for
    n <= 8 blocks where a hand-rolled solver stays trivially auditable.
    """
    a = np.array(m, dtype=float, copy=True)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSymmetric(f"expected a square matrix, got shape {a.shape}")
    if np.abs(a - a.T).max() > 1e-10:
        raise NotSymmetric("matrix is not symmetric within 1e-10")
    n = a.shape[0]
    v = np.eye(n)
    for _ in range(max_sweeps):
        off = np.sqrt(np.sum(np.square(a - np.diag(np.diagonal(a)))))
        if off < tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) < tol / (n * n):
                    continue
                theta = 0.5 * (a[q, q] - a[p, p]) / apq
                t = np.sign(theta) / (abs(theta) + np.hypot(theta, 1.0)) if theta != 0 else 1.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                col_p, col_q = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p, row_q = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                vec_p, vec_q = v[:, p].copy(), v[:, q].copy()
                v[:, p] = c * vec_p - s * vec_q
                v[:, q] = s * vec_p + c * vec_q
    else:
        raise RuntimeError("Jacobi sweep limit reached without convergence")
    order = np.argsort(np.diagonal(a), kind="stable")
    return EigenDecomposition(np.diagonal(a)[order].copy(), v[:, order].copy())


def partial_trace_mid(ket) -> np.ndarray:
    """Trace out the middle site of a three-qubit ket.

    Basis convention: |s1 s2 s3> with site 1 the most significant bit and
    spin-up = 0.  Returns the 4x4 reduced matrix on sites (1, 3).
    """
    psi = np.asarray(ket).reshape(2, 2, 2)
    rho = np.einsum("abc,dbe->acde", psi, psi.conj())
    return rho.reshape(4, 4)


def _entropy_bits(values: np.ndarray) -> float:
    lam = np.clip(np.asarray(values, dtype=float), 0.0, 1.0)
    lam = lam[lam > 0.0]
    return float(-(lam * np.log(lam)).sum() / _LN2)


def _block_views(rho: np.ndarray, side: str):
    if side == "b":
        perm = [0, 2, 1, 3]  # swap the two qubits
        rho = rho[np.ix_(perm, perm)]
    return [[rho[:2, :2], rho[:2, 2:]], [rho[2:, :2], rho[2:, 2:]]]


def _avg_conditional_entropy(blocks, theta, phi):
    """Mean post-measurement entropy sum_k p_k S(rho_k) over a direction grid."""
    nz = np.cos(theta)
    nx = np.sin(theta) * np.cos(phi)
    ny = np.sin(theta) * np.sin(phi)
    total = np.zeros(np.broadcast(theta, phi).shape)
    for sgn in (1.0, -1.0):
        w = 0.5 * sgn * (nx + 1.0j * ny)
        c0, c1 = 0.5 * (1.0 + sgn * nz), 0.5 * (1.0 - sgn * nz)
        m00, m01, m11 = (
            c0 * blocks[0][0][i, j]
            + w * blocks[0][1][i, j]
            + np.conj(w) * blocks[1][0][i, j]
            + c1 * blocks[1][1][i, j]
            for i, j in ((0, 0), (0, 1), (1, 1))
        )
        p = np.real(m00 + m11)
        radius = np.sqrt(np.maximum(np.real(m00 - m11) ** 2 + 4.0 * np.abs(m01) ** 2, 0.0))
        for lam in ((p + radius) / 2.0, (p - radius) / 2.0):
            lam = np.clip(lam, 0.0, None)
            mask = lam > 1e-300
            contrib = np.zeros_like(lam)
            pb = np.broadcast_to(p, lam.shape)
            # p_k S(rho_k) accumulated as -mu log2(mu / p_k) with mu unnormalized
            contrib[mask] = -lam[mask] * (np.log(lam[mask]) - np.log(pb[mask])) / _LN2
            total += contrib
    return total


def brute_force_discord(
    s: XState,
    side: str = "a",
    coarse: int = 90,
    refine_iters: int = 4,
) -> tuple[float, MeasurementDirection]:
    """Quantum discord by direct minimization over projective measurements.

    Coarse theta x phi grid (coarse x 2*coarse over the antipodal-reduced
    hemisphere) followed by refine_iters local re-grids shrinking the window
    by a factor of 10 each pass.  Returns the discord value and the optimal
    measurement direction.
    """
    rho = xstate_to_matrix(s)
    blocks = _block_views(rho, side)
    # measured side's marginal: entries Tr(R_ij) over the block decomposition
    m00 = np.real(np.trace(blocks[0][0]))
    m11 = np.real(np.trace(blocks[1][1]))
    m01 = complex(np.trace(blocks[0][1]))
    radius = np.hypot((m00 - m11) / 2.0, abs(m01))
    mean = (m00 + m11) / 2.0
    s_meas = _entropy_bits(np.array([mean + radius, mean - radius]))
    s_ab = _entropy_bits(diag_symmetric(rho).eigenvalues)

    theta = np.linspace(0.0, np.pi / 2.0, coarse)
    phi = np.linspace(0.0, 2.0 * np.pi, 2 * coarse, endpoint=False)
    th, ph = np.meshgrid(theta, phi, indexing="ij")
    grid = _avg_conditional_entropy(blocks, th, ph)
    k = np.unravel_index(int(np.argmin(grid)), grid.shape)
    best_t, best_p, best = float(th[k]), float(ph[k]), float(grid[k])
    win_t, win_p = theta[1] - theta[0], phi[1] - phi[0]
    for _ in range(refine_iters):
        theta = np.linspace(best_t - win_t, best_t + win_t, 19)
        phi = np.linspace(best_p - win_p, best_p + win_p, 19)
        th, ph = np.meshgrid(theta, phi, indexing="ij")
        grid = _avg_conditional_entropy(blocks, th, ph)
        k = np.unravel_index(int(np.argmin(grid)), grid.shape)
        if grid[k] < best:
            best_t, best_p, best = float(th[k]), float(ph[k]), float(grid[k])
        win_t /= 10.0
        win_p /= 10.0
    if best_t < 0.0:  # (-theta, phi) names the same axis as (theta, phi + pi)
        best_t, best_p = -best_t, best_p + np.pi
    direction = MeasurementDirection(best_t, best_p % (2.0 * np.pi))
    return s_meas - s_ab + best, direction


def _correlation_matrix(rho: np.ndarray) -> np.ndarray:
    paulis = (SIGMA_X, SIGMA_Y, SIGMA_Z)
    t = np.empty((3, 3))
    for i, si in enumerate(paulis):
        for j, sj in enumerate(paulis):
            t[i, j] = np.real(np.trace(rho @ np.kron(si, sj)))
    return t


def _unit_vectors(theta, phi):
    th, ph = np.meshgrid(theta, phi, indexing="ij")
    vecs = np.stack(
        [np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], axis=-1
    ).reshape(-1, 3)
    return vecs, th.ravel(), ph.ravel()


def brute_force_chsh(s: XState, coarse: int = 24, refine_iters: int = 16) -> float:
    """Maximal CHSH expectation by a direct search over plane normals.

    The optimal detector settings b, b' on one side are orthonormal (Horodecki,
    Horodecki & Horodecki, PLA 200, 340 (1995)), so with T the 3x3 correlation
    matrix of the dense state and M = T^T T the maximum is
    2 sqrt(tr M - min over unit n of n^T M n), n the normal of their plane.
    n is scanned on a hemisphere grid, then refined refine_iters times on a
    7 x 7 window shrinking by a factor of 3 per pass.  The refinement is exact
    only for a diagonal M, as every X state gives (the optimal n is then a grid
    axis); for a general M it can miss the least eigenvalue by ~1e-4.
    """
    t = _correlation_matrix(xstate_to_matrix(s).astype(complex))
    m = t.T @ t

    def quad(theta, phi):
        vecs, th, ph = _unit_vectors(theta, phi)
        vals = np.einsum("ki,ij,kj->k", vecs, m, vecs)
        k = int(np.argmin(vals))
        return float(vals[k]), float(th[k]), float(ph[k])

    theta = np.linspace(0.0, np.pi / 2.0, coarse)
    phi = np.linspace(0.0, 2.0 * np.pi, 2 * coarse, endpoint=False)
    best, best_t, best_p = quad(theta, phi)
    win_t, win_p = theta[1] - theta[0], phi[1] - phi[0]
    for _ in range(refine_iters):
        value, th, ph = quad(
            np.linspace(best_t - win_t, best_t + win_t, 7),
            np.linspace(best_p - win_p, best_p + win_p, 7),
        )
        if value < best:
            best, best_t, best_p = value, th, ph
        win_t /= 3.0
        win_p /= 3.0
    return 2.0 * float(np.sqrt(max(np.trace(m) - best, 0.0)))
