"""Two-qubit X states: construction, validation, and basic decompositions.

An X state is parametrized by four diagonal weights and two real coherences,

    [[d1, 0,  0,  a ],
     [0,  d2, b,  0 ],
     [0,  b,  d3, 0 ],
     [a,  0,  0,  d4]]

in the product basis |00>, |01>, |10>, |11>.  Complex coherence phases are a
local unitary and are stripped at ingestion, so all downstream algebra is real.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotDensityMatrix, NotXStructured

VALIDATION_TOL = 1e-10


@dataclass(frozen=True)
class XState:
    """X-structured two-qubit density matrix with real coherences."""

    d1: float
    d2: float
    d3: float
    d4: float
    a: float
    b: float

    def __post_init__(self):
        d = (self.d1, self.d2, self.d3, self.d4)
        if any(not math.isfinite(x) for x in d + (self.a, self.b)):
            raise NotDensityMatrix("non-finite entry in X-state parameters")
        if min(d) < -VALIDATION_TOL:
            raise NotDensityMatrix(f"negative diagonal weight {min(d)}")
        if abs(sum(d) - 1.0) > VALIDATION_TOL:
            raise NotDensityMatrix(f"diagonal weights sum to {sum(d)}, not 1")
        # positivity of the two 2x2 blocks
        if self.a * self.a > self.d1 * self.d4 + VALIDATION_TOL:
            raise NotDensityMatrix("outer coherence exceeds sqrt(d1*d4)")
        if self.b * self.b > self.d2 * self.d3 + VALIDATION_TOL:
            raise NotDensityMatrix("inner coherence exceeds sqrt(d2*d3)")

    @property
    def diagonal(self) -> tuple[float, float, float, float]:
        return (self.d1, self.d2, self.d3, self.d4)


@dataclass(frozen=True)
class BlochX:
    """Local Bloch-z components and diagonal correlation entries of an X state.

    x and y are the z-axis Bloch components of qubits A and B; t1, t2, t3 are
    the diagonal entries of the correlation matrix.  Plain container: validity
    is checked when converting back to an XState.
    """

    x: float
    y: float
    t1: float
    t2: float
    t3: float


@dataclass(frozen=True)
class QubitMarginal:
    """Diagonal single-qubit reduced state (p0, p1)."""

    p0: float
    p1: float


def xstate_from_matrix(m, tol: float = 1e-10) -> XState:
    """Validate a 4x4 matrix as an X-state density matrix and extract fields.

    Off-pattern weight raises NotXStructured; Hermiticity, trace, or
    positivity failures raise NotDensityMatrix.  Coherence phases are
    replaced by their moduli (local-unitary equivalence).
    """
    m = np.asarray(m)
    if m.shape != (4, 4):
        raise NotXStructured(f"expected a 4x4 matrix, got shape {m.shape}")
    x_pattern = np.zeros((4, 4), dtype=bool)
    x_pattern[np.arange(4), np.arange(4)] = True
    x_pattern[0, 3] = x_pattern[3, 0] = x_pattern[1, 2] = x_pattern[2, 1] = True
    off = np.abs(m[~x_pattern])
    if off.size and off.max() > tol:
        raise NotXStructured(f"off-pattern entry of magnitude {off.max():.3e}")
    if np.abs(m - m.conj().T).max() > tol:
        raise NotDensityMatrix("matrix is not Hermitian")
    trace = complex(np.trace(m))
    if abs(trace - 1.0) > tol:
        raise NotDensityMatrix(f"trace is {trace}, not 1")
    d1, d2, d3, d4 = (float(np.real(m[i, i])) for i in range(4))
    return XState(d1, d2, d3, d4, abs(complex(m[0, 3])), abs(complex(m[1, 2])))


def xstate_to_matrix(s: XState) -> np.ndarray:
    """Dense real 4x4 matrix of an X state."""
    return np.array(
        [
            [s.d1, 0.0, 0.0, s.a],
            [0.0, s.d2, s.b, 0.0],
            [0.0, s.b, s.d3, 0.0],
            [s.a, 0.0, 0.0, s.d4],
        ]
    )


def to_bloch(s: XState) -> BlochX:
    """Bloch-z components and diagonal correlation entries of an X state."""
    return BlochX(
        x=s.d1 + s.d2 - s.d3 - s.d4,
        y=s.d1 - s.d2 + s.d3 - s.d4,
        t1=2.0 * (s.a + s.b),
        t2=2.0 * (s.b - s.a),
        t3=s.d1 - s.d2 - s.d3 + s.d4,
    )


def from_bloch(p: BlochX) -> XState:
    """Inverse of to_bloch.  Raises NotDensityMatrix if parameters are unphysical."""
    return XState(
        d1=(1.0 + p.x + p.y + p.t3) / 4.0,
        d2=(1.0 + p.x - p.y - p.t3) / 4.0,
        d3=(1.0 - p.x + p.y - p.t3) / 4.0,
        d4=(1.0 - p.x - p.y + p.t3) / 4.0,
        a=(p.t1 - p.t2) / 4.0,
        b=(p.t1 + p.t2) / 4.0,
    )


def spectrum(s: XState) -> np.ndarray:
    """Four eigenvalues in descending order, from the two 2x2 blocks."""
    outer_mid = 0.5 * (s.d1 + s.d4)
    outer_rad = np.hypot(0.5 * (s.d1 - s.d4), s.a)
    inner_mid = 0.5 * (s.d2 + s.d3)
    inner_rad = np.hypot(0.5 * (s.d2 - s.d3), s.b)
    vals = np.array(
        [outer_mid + outer_rad, outer_mid - outer_rad, inner_mid + inner_rad, inner_mid - inner_rad]
    )
    return np.sort(vals)[::-1]


def marginal_a(s: XState) -> QubitMarginal:
    return QubitMarginal(s.d1 + s.d2, s.d3 + s.d4)


def marginal_b(s: XState) -> QubitMarginal:
    return QubitMarginal(s.d1 + s.d3, s.d2 + s.d4)


def random_xstates(n: int, seed: int = 42) -> list[XState]:
    """n valid X states: Dirichlet diagonals, coherences uniform in the PSD disk."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        d = rng.dirichlet(np.ones(4))
        a = (2.0 * rng.random() - 1.0) * np.sqrt(d[0] * d[3])
        b = (2.0 * rng.random() - 1.0) * np.sqrt(d[1] * d[2])
        out.append(XState(d[0], d[1], d[2], d[3], a, b))
    return out
