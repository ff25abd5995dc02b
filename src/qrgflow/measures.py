"""Correlation measures for two-qubit X states.

All entropies are in bits.  Closed forms follow the X-state block structure;
optimal discord also searches the polar angle of the measurement axis where no
Pauli measurement is sure to be optimal (Lu et al., PRA 83, 012327 (2011)).

Each formula is written once, in ``_Measures``, over the six X-state fields and
the primitives of ``elementwise``.  The per-state functions evaluate it on one
state's floats; ``evaluate`` on a batch state evaluates it on arrays, with the
same rounding in every cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cos, pi, sin, sqrt

from .elementwise import FLOATS
from .errors import DomainError, InvalidDistribution
from .xstate import XState, bloch_components, eigenvalues, marginal_a, marginal_b, state_ops

# Condition number of the entropy differences stays ~1, so exact-zero
# measures can round to ~-1e-16; anything worse is a real sign error.
_NEG_CLIP = 1e-9
# Input slack of the two public entropies; their guards are written
# `not lo <= x <= hi` so that NaN fails them.
_DISTRIBUTION_TOL = 1e-9
_MIX_TOL = 1e-12


def _clip_tiny(ops, value):
    return ops.where((value > -_NEG_CLIP) & (value < 0.0), 0.0, value)


def _mix_entropy(ops, z):
    r = ops.sqrt(ops.min(ops.max(z, 0.0), 1.0))
    return ops.entropy((1.0 + r) / 2.0, (1.0 - r) / 2.0)


def shannon_entropy(p) -> float:
    """Shannon entropy in bits of a probability vector."""
    p = [float(x) for x in p]
    if not all(-_DISTRIBUTION_TOL <= x <= 1.0 + _DISTRIBUTION_TOL for x in p):
        raise InvalidDistribution(f"entry outside [0, 1]: {p}")
    if not abs(sum(p) - 1.0) <= _DISTRIBUTION_TOL:
        raise InvalidDistribution(f"probabilities sum to {sum(p)}, not 1")
    return FLOATS.entropy(*p)


def binary_mix_entropy(z: float) -> float:
    """Entropy of the pair (1 +- sqrt(z))/2; decreasing from 1 at z=0 to 0 at z=1."""
    if not -_MIX_TOL <= z <= 1.0 + _MIX_TOL:
        raise DomainError(f"binary_mix_entropy argument {z} outside [0, 1]")
    return _mix_entropy(FLOATS, z)


_THETA_GRID = 33  # coarse polar angles on [0, pi/2], both Pauli ends included
_GOLDEN_STEPS = 40  # shrinks the bracket by 0.618^40 ~ 4e-9
_GOLDEN = (sqrt(5.0) - 1.0) / 2.0
_AXIS_TIE = 1e-14  # the search and the Pauli closed forms round apart by up to ~1e-15


def _polar_search(w: float, v: float, t: float, t3: float) -> float:
    """Least conditional entropy over the polar angle theta of the measurement axis.

    The entropy falls as t1^2 cos^2 phi + t2^2 sin^2 phi grows, so the axis
    lies in the plane of t = max(|t1|, |t2|).  Outcome +-, of weight
    (1 +- w cos theta)/2, leaves the other qubit with Bloch vector
    (+-t sin theta, 0, v +- t3 cos theta)/(1 +- w cos theta), where w and v are
    the measured and unmeasured z components.  A coarse grid brackets the
    minimum and golden-section steps refine it.
    """

    def conditional(theta: float) -> float:
        c, st = cos(theta), t * sin(theta)
        total = 0.0
        for q, z in ((1.0 + w * c, v + t3 * c), (1.0 - w * c, v - t3 * c)):
            if q > 0.0:
                total += 0.5 * q * _mix_entropy(FLOATS, (st * st + z * z) / (q * q))
        return total

    step = 0.5 * pi / (_THETA_GRID - 1)
    k = min(range(_THETA_GRID), key=lambda i: conditional(i * step))
    lo, hi = max(k - 1, 0) * step, min(k + 1, _THETA_GRID - 1) * step
    for _ in range(_GOLDEN_STEPS):
        x1, x2 = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
        if conditional(x1) <= conditional(x2):
            hi = x2
        else:
            lo = x1
    return conditional(0.5 * (lo + hi))


def _lowered(best: float, w: float, v: float, t: float, t3: float) -> float:
    """The polar-angle search's conditional where it beats best by more than rounding."""
    interior = _polar_search(w, v, t, t3)
    return interior if interior < best - _AXIS_TIE else best


class _once:
    """Computes an attribute on first access and stores it on the instance."""

    def __init__(self, fn):
        self.fn = fn
        self.name = fn.__name__

    def __get__(self, obj, cls):
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


class _Measures:
    """Every measure of one X state, or of a batch, measured on one side.

    The fields are floats or arrays (see ``XState``); ``ops`` supplies the
    matching primitives.  Intermediates (Bloch components, the spectrum's
    entropy, the marginal entropy, the Pauli conditionals) are computed once,
    on first use, and shared by every measure that needs them.
    """

    def __init__(self, s: XState, side: str = "a"):
        self.s = s
        self.side = side
        self.ops = state_ops(s)

    @_once
    def bloch(self):
        return bloch_components(self.s)

    @_once
    def local_z(self):
        """(measured, unmeasured) qubit's Bloch z component."""
        x, y = self.bloch[0], self.bloch[1]
        return (x, y) if self.side == "a" else (y, x)

    @_once
    def t_squared(self):
        square = self.ops.square
        return square(self.bloch[2]), square(self.bloch[3]), square(self.bloch[4])

    @_once
    def roots(self):
        """sqrt(d1 d4) and sqrt(d2 d3), the coherence bounds of the two blocks."""
        s, ops = self.s, self.ops
        return ops.sqrt(ops.max(s.d1 * s.d4, 0.0)), ops.sqrt(ops.max(s.d2 * s.d3, 0.0))

    @_once
    def s_ab(self):
        return self.ops.entropy(*eigenvalues(self.s, self.ops))

    @_once
    def s_marginal(self):
        return self.ops.entropy(*(marginal_a if self.side == "a" else marginal_b)(self.s))

    def _equatorial(self, t):
        """Conditional entropy of an equatorial measurement: f(v^2 + t^2), outcomes equiprobable."""
        v = self.local_z[1]
        return _mix_entropy(self.ops, self.ops.min(v * v + t * t, 1.0))

    @_once
    def cond_x(self):
        return self._equatorial(self.bloch[2])

    @_once
    def cond_y(self):
        return self._equatorial(self.bloch[3])

    @_once
    def cond_z(self):
        """sum_k p_k S(rho_k) for a sigma_z measurement."""
        s, ops = self.s, self.ops
        if self.side == "a":
            branches = ((s.d1, s.d2), (s.d3, s.d4))
        else:
            branches = ((s.d1, s.d3), (s.d2, s.d4))
        total = 0.0
        for u, v in branches:
            p = u + v
            live = p > 0.0
            q = ops.where(live, p, 1.0)
            total = total + ops.where(live, p * ops.entropy(u / q, v / q), 0.0)
        return total

    @_once
    def unguarded(self):
        """Where the coherence condition under which some Pauli measurement is optimal fails."""
        outer, inner = self.roots
        return abs(outer - inner) > abs(self.s.a) + abs(self.s.b)

    @_once
    def search_inputs(self):
        """(w, v, t, t3) of the polar-angle search."""
        _, _, t1, t2, t3 = self.bloch
        return (*self.local_z, self.ops.max(abs(t1), abs(t2)), t3)

    @_once
    def best_conditional(self):
        """Least Pauli conditional, lowered by the polar-angle search where unguarded."""
        best = self.ops.min(self.cond_x, self.cond_y, self.cond_z)
        return self.ops.rowwise(_lowered, self.unguarded, best, *self.search_inputs)

    def _discord(self, conditional):
        return _clip_tiny(self.ops, self.s_marginal - self.s_ab + conditional)

    def concurrence(self):
        """2*max(0, |a|-sqrt(d2 d3), |b|-sqrt(d1 d4))."""
        outer, inner = self.roots
        return 2.0 * self.ops.max(0.0, abs(self.s.a) - inner, abs(self.s.b) - outer)

    def discord_optimal(self):
        return self._discord(self.best_conditional)

    def discord_sigma_x(self):
        return self._discord(self.cond_x)

    def discord_sigma_y(self):
        return self._discord(self.cond_y)

    def discord_sigma_z(self):
        return self._discord(self.cond_z)

    def mid(self):
        return _clip_tiny(self.ops, self.ops.entropy(*self.s.diagonal) - self.s_ab)

    def geometric_discord(self):
        t1, t2, t3 = self.t_squared
        w = self.local_z[0]
        total = t1 + t2 + t3 + w * w
        return 0.25 * (total - self.ops.max(t1, t2, t3 + w * w))

    def min_nonlocality(self):
        t1, t2, t3 = self.t_squared
        ops = self.ops
        return ops.where(
            abs(self.local_z[0]) > 1e-9,
            0.25 * (t1 + t2),
            0.25 * (t1 + t2 + t3 - ops.min(t1, t2, t3)),
        )

    def chsh_max(self):
        # the largest pair sum rounds exactly like the sum of the two largest entries
        t1, t2, t3 = self.t_squared
        return 2.0 * self.ops.sqrt(self.ops.max(t1 + t2, t1 + t3, t2 + t3))


def concurrence(s: XState) -> float:
    """Entanglement of formation witness 2*max(0, |a|-sqrt(d2 d3), |b|-sqrt(d1 d4))."""
    return _Measures(s).concurrence()


def mutual_information(s: XState) -> float:
    """S(A) + S(B) - S(AB) in bits."""
    side_a = _Measures(s)
    total = side_a.s_marginal + _Measures(s, "b").s_marginal - side_a.s_ab
    return _clip_tiny(side_a.ops, total)


def discord_sigma_z(s: XState, side: str = "a") -> float:
    """Quantum discord for a sigma_z projective measurement."""
    return _Measures(s, side).discord_sigma_z()


def discord_sigma_xy(s: XState, axis: str, side: str = "a") -> float:
    """Quantum discord for a sigma_x or sigma_y projective measurement."""
    if axis not in ("x", "y"):
        raise DomainError(f"axis must be 'x' or 'y', got {axis!r}")
    k = _Measures(s, side)
    return k.discord_sigma_x() if axis == "x" else k.discord_sigma_y()


@dataclass(frozen=True)
class DiscordBreakdown:
    """Ingredients of the discord minimization.

    s_a is the measured side's marginal entropy, s_ab the state entropy, and
    cond_x/y/z the average conditional entropies of the three Pauli
    measurements.  optimal_basis is 'x', 'y', 'z', or 'interior' when the
    polar-angle search finds an axis strictly between them that does better.
    """

    s_a: float
    s_ab: float
    cond_x: float
    cond_y: float
    cond_z: float
    optimal_basis: str


def discord_optimal(s: XState, side: str = "a") -> tuple[float, DiscordBreakdown]:
    """Quantum discord minimized over measurement bases.

    Under the coherence guard the minimum over {sigma_x, sigma_y, sigma_z} is
    exact (the t1 >= t2 rule picks between the equatorial pair).  Otherwise the
    optimal axis may lie strictly between them, and the polar-angle search
    replaces the Pauli minimum where it is lower by more than rounding.
    """
    k = _Measures(s, side)
    value = k.discord_optimal()
    cond = {"x": k.cond_x, "y": k.cond_y, "z": k.cond_z}
    basis = min(cond, key=cond.get)
    if k.best_conditional < cond[basis]:
        basis = "interior"
    return value, DiscordBreakdown(k.s_marginal, k.s_ab, k.cond_x, k.cond_y, k.cond_z, basis)


def mid(s: XState) -> float:
    """Measurement-induced disturbance S(dephased) - S(state).

    The dephasing basis is the marginal eigenbasis, which for X states is the
    sigma_z product basis; when a marginal is maximally mixed the eigenbasis
    is not unique and the sigma_z convention is kept.
    """
    return _Measures(s).mid()


def geometric_discord(s: XState, side: str = "a") -> float:
    """Hilbert-Schmidt distance (x2) to the nearest classical-quantum state."""
    return _Measures(s, side).geometric_discord()


def min_nonlocality(s: XState, side: str = "a") -> float:
    """Measurement-induced nonlocality; branch switches when the local Bloch vector vanishes."""
    return _Measures(s, side).min_nonlocality()


def chsh_max(s: XState) -> float:
    """Maximal CHSH expectation 2*sqrt of the two largest squared t entries."""
    return _Measures(s).chsh_max()


@dataclass(frozen=True)
class MeasureSet:
    """All correlation measures of one state, side-A conventions."""

    concurrence: float
    qd_optimal: float
    qd_sigma_x: float
    qd_sigma_y: float
    qd_sigma_z: float
    mid: float
    gd: float
    min_nl: float
    chsh_max: float


# CSV column name -> formula, measured on side A; also the canonical measure ordering.
_COLUMNS = {
    "concurrence": _Measures.concurrence,
    "qd_optimal": _Measures.discord_optimal,
    "qd_sigma_x": _Measures.discord_sigma_x,
    "qd_sigma_y": _Measures.discord_sigma_y,
    "qd_sigma_z": _Measures.discord_sigma_z,
    "mid": _Measures.mid,
    "gd": _Measures.geometric_discord,
    "min": _Measures.min_nonlocality,
    "chsh_max": _Measures.chsh_max,
}

MEASURE_NAMES = tuple(_COLUMNS)


def evaluate(s: XState, names=MEASURE_NAMES) -> list:
    """The named measures of s in one pass over shared intermediates.

    On a batch state (array fields) each entry is an array over the batch.
    """
    k = _Measures(s)
    return [_COLUMNS[name](k) for name in names]


def measure_all(s: XState) -> MeasureSet:
    """Evaluate every measure on one state (measurements on side A)."""
    return MeasureSet(*evaluate(s))
