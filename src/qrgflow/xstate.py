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

from dataclasses import dataclass

import numpy as np

from .elementwise import Elementwise, ops_of
from .errors import NotDensityMatrix, NotXStructured

VALIDATION_TOL = 1e-10


@dataclass(frozen=True)
class XState:
    """X-structured two-qubit density matrix with real coherences.

    The fields are floats for one state, or arrays of one shape for a batch of
    states (``Model.edge_state`` of an array of couplings); the checks then
    hold elementwise.
    """

    d1: float
    d2: float
    d3: float
    d4: float
    a: float
    b: float

    def __post_init__(self):
        d1, d2, d3, d4, a, b = self.d1, self.d2, self.d3, self.d4, self.a, self.b
        ops = ops_of(d1, d2, d3, d4, a, b)
        finite = ops.isfinite(d1) & ops.isfinite(d2) & ops.isfinite(d3) & ops.isfinite(d4)
        if not ops.all(finite & ops.isfinite(a) & ops.isfinite(b)):
            raise NotDensityMatrix("non-finite entry in X-state parameters")
        least = ops.min(d1, d2, d3, d4)
        if not ops.all(least >= -VALIDATION_TOL):
            raise NotDensityMatrix(f"negative diagonal weight {np.min(least)}")
        total = d1 + d2 + d3 + d4
        if not ops.all(abs(total - 1.0) <= VALIDATION_TOL):
            worst = np.ravel(total)[np.argmax(np.abs(np.ravel(total) - 1.0))]
            raise NotDensityMatrix(f"diagonal weights sum to {worst}, not 1")
        # positivity of the two 2x2 blocks
        if not ops.all(a * a <= d1 * d4 + VALIDATION_TOL):
            raise NotDensityMatrix("outer coherence exceeds sqrt(d1*d4)")
        if not ops.all(b * b <= d2 * d3 + VALIDATION_TOL):
            raise NotDensityMatrix("inner coherence exceeds sqrt(d2*d3)")

    @property
    def diagonal(self) -> tuple[float, float, float, float]:
        return (self.d1, self.d2, self.d3, self.d4)


def state_ops(s: XState) -> Elementwise:
    """The primitives for the fields of s: FLOATS for one state, ARRAYS for a batch."""
    return ops_of(s.d1, s.d2, s.d3, s.d4, s.a, s.b)


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


def xstate_from_matrix(m) -> XState:
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
    if not off.max() <= VALIDATION_TOL:  # NaN fails every guard written this way
        raise NotXStructured(f"off-pattern entry of magnitude {off.max():.3e}")
    if not np.abs(m - m.conj().T).max() <= VALIDATION_TOL:
        raise NotDensityMatrix("matrix is not Hermitian")
    trace = complex(np.trace(m))
    if not abs(trace - 1.0) <= VALIDATION_TOL:
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


def bloch_components(s: XState) -> tuple:
    """(x, y, t1, t2, t3) of an X state, floats or arrays like its fields."""
    return (
        s.d1 + s.d2 - s.d3 - s.d4,
        s.d1 - s.d2 + s.d3 - s.d4,
        2.0 * (s.a + s.b),
        2.0 * (s.b - s.a),
        s.d1 - s.d2 - s.d3 + s.d4,
    )


def to_bloch(s: XState) -> BlochX:
    """Bloch-z components and diagonal correlation entries of an X state."""
    return BlochX(*bloch_components(s))


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


def eigenvalues(s: XState, ops: Elementwise) -> list:
    """The four eigenvalues, largest first, from the two 2x2 blocks."""
    outer_mid = 0.5 * (s.d1 + s.d4)
    outer_rad = ops.hypot(0.5 * (s.d1 - s.d4), s.a)
    inner_mid = 0.5 * (s.d2 + s.d3)
    inner_rad = ops.hypot(0.5 * (s.d2 - s.d3), s.b)
    return ops.descending(
        outer_mid + outer_rad, outer_mid - outer_rad, inner_mid + inner_rad, inner_mid - inner_rad
    )


def spectrum(s: XState) -> np.ndarray:
    """Four eigenvalues in descending order, from the two 2x2 blocks."""
    return np.array(eigenvalues(s, state_ops(s)))


def marginal_a(s: XState) -> tuple[float, float]:
    """Diagonal (p0, p1) of qubit A's reduced state."""
    return s.d1 + s.d2, s.d3 + s.d4


def marginal_b(s: XState) -> tuple[float, float]:
    """Diagonal (p0, p1) of qubit B's reduced state."""
    return s.d1 + s.d3, s.d2 + s.d4


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
