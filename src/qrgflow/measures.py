"""Correlation measures for two-qubit X states.

All entropies are in bits.  Closed forms follow the X-state block structure;
optimal discord also searches the polar angle of the measurement axis where no
Pauli measurement is sure to be optimal (Lu et al., PRA 83, 012327 (2011)).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cos, log2, pi, sin, sqrt

from .errors import DomainError, InvalidDistribution
from .xstate import XState, marginal_a, marginal_b, spectrum, to_bloch

# Condition number of the entropy differences stays ~1, so exact-zero
# measures can round to ~-1e-16; anything worse is a real sign error.
_NEG_CLIP = 1e-9
# Input slack of the two public entropies; their guards are written
# `not lo <= x <= hi` so that NaN fails them.
_DISTRIBUTION_TOL = 1e-9
_MIX_TOL = 1e-12


def _clip_tiny(value: float) -> float:
    if -_NEG_CLIP < value < 0.0:
        return 0.0
    return value


def _entropy_of(values) -> float:
    total = 0.0
    for x in values:
        if x > 0.0:
            total -= x * log2(min(float(x), 1.0))
    return total


def shannon_entropy(p) -> float:
    """Shannon entropy in bits of a probability vector."""
    p = [float(x) for x in p]
    if not all(-_DISTRIBUTION_TOL <= x <= 1.0 + _DISTRIBUTION_TOL for x in p):
        raise InvalidDistribution(f"entry outside [0, 1]: {p}")
    if not abs(sum(p) - 1.0) <= _DISTRIBUTION_TOL:
        raise InvalidDistribution(f"probabilities sum to {sum(p)}, not 1")
    return _entropy_of(p)


def binary_mix_entropy(z: float) -> float:
    """Entropy of the pair (1 +- sqrt(z))/2; decreasing from 1 at z=0 to 0 at z=1."""
    if not -_MIX_TOL <= z <= 1.0 + _MIX_TOL:
        raise DomainError(f"binary_mix_entropy argument {z} outside [0, 1]")
    r = sqrt(min(max(z, 0.0), 1.0))
    return _entropy_of(((1.0 + r) / 2.0, (1.0 - r) / 2.0))


def _state_entropy(s: XState) -> float:
    return _entropy_of(spectrum(s))


def _marginal_entropy(s: XState, side: str) -> float:
    return _entropy_of(marginal_a(s) if side == "a" else marginal_b(s))


def concurrence(s: XState) -> float:
    """Entanglement of formation witness 2*max(0, |a|-sqrt(d2 d3), |b|-sqrt(d1 d4))."""
    return 2.0 * max(
        0.0,
        abs(s.a) - sqrt(max(s.d2 * s.d3, 0.0)),
        abs(s.b) - sqrt(max(s.d1 * s.d4, 0.0)),
    )


def mutual_information(s: XState) -> float:
    """S(A) + S(B) - S(AB) in bits."""
    return _clip_tiny(_marginal_entropy(s, "a") + _marginal_entropy(s, "b") - _state_entropy(s))


def _sigma_z_conditional(s: XState, side: str) -> float:
    """sum_k p_k S(rho_k) for a sigma_z measurement on the given side."""
    if side == "a":
        branches = ((s.d1, s.d2), (s.d3, s.d4))
    else:
        branches = ((s.d1, s.d3), (s.d2, s.d4))
    total = 0.0
    for u, v in branches:
        p = u + v
        if p > 0.0:
            total += p * _entropy_of((u / p, v / p))
    return total


def discord_sigma_z(s: XState, side: str = "a") -> float:
    """Quantum discord for a sigma_z projective measurement."""
    value = _marginal_entropy(s, side) - _state_entropy(s) + _sigma_z_conditional(s, side)
    return _clip_tiny(value)


def _sigma_xy_conditional(s: XState, axis: str, side: str) -> float:
    """Equatorial-measurement conditional entropy f(w^2 + t^2); outcomes equiprobable."""
    bloch = to_bloch(s)
    t = bloch.t1 if axis == "x" else bloch.t2
    w = bloch.y if side == "a" else bloch.x
    return binary_mix_entropy(min(w * w + t * t, 1.0))


def discord_sigma_xy(s: XState, axis: str, side: str = "a") -> float:
    """Quantum discord for a sigma_x or sigma_y projective measurement."""
    if axis not in ("x", "y"):
        raise DomainError(f"axis must be 'x' or 'y', got {axis!r}")
    value = _marginal_entropy(s, side) - _state_entropy(s) + _sigma_xy_conditional(s, axis, side)
    return _clip_tiny(value)


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


def _pauli_guard(s: XState) -> bool:
    """Coherence condition under which some Pauli measurement is optimal."""
    gap = abs(sqrt(max(s.d1 * s.d4, 0.0)) - sqrt(max(s.d2 * s.d3, 0.0)))
    return gap <= abs(s.a) + abs(s.b)


_THETA_GRID = 33  # coarse polar angles on [0, pi/2], both Pauli ends included
_GOLDEN_STEPS = 40  # shrinks the bracket by 0.618^40 ~ 4e-9
_GOLDEN = (sqrt(5.0) - 1.0) / 2.0
_AXIS_TIE = 1e-14  # the search and the Pauli closed forms round apart by up to ~1e-15


def _interior_conditional(s: XState, side: str) -> float:
    """Least conditional entropy over the polar angle theta of the measurement axis.

    The entropy falls as t1^2 cos^2 phi + t2^2 sin^2 phi grows, so the axis
    lies in the plane of t = max(|t1|, |t2|).  Outcome +-, of weight
    (1 +- w cos theta)/2, leaves the other qubit with Bloch vector
    (+-t sin theta, 0, v +- t3 cos theta)/(1 +- w cos theta), where w and v are
    the measured and unmeasured z components.  A coarse grid brackets the
    minimum and golden-section steps refine it.
    """
    bloch = to_bloch(s)
    w, v = (bloch.x, bloch.y) if side == "a" else (bloch.y, bloch.x)
    t = max(abs(bloch.t1), abs(bloch.t2))

    def conditional(theta: float) -> float:
        c, st = cos(theta), t * sin(theta)
        total = 0.0
        for q, z in ((1.0 + w * c, v + bloch.t3 * c), (1.0 - w * c, v - bloch.t3 * c)):
            if q > 0.0:
                total += 0.5 * q * binary_mix_entropy(min((st * st + z * z) / (q * q), 1.0))
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


def discord_optimal(s: XState, side: str = "a") -> tuple[float, DiscordBreakdown]:
    """Quantum discord minimized over measurement bases.

    Under the coherence guard the minimum over {sigma_x, sigma_y, sigma_z} is
    exact (the t1 >= t2 rule picks between the equatorial pair).  Otherwise the
    optimal axis may lie strictly between them, and the polar-angle search
    replaces the Pauli minimum where it is lower by more than rounding.
    """
    s_marg = _marginal_entropy(s, side)
    s_ab = _state_entropy(s)
    cond = {
        "x": _sigma_xy_conditional(s, "x", side),
        "y": _sigma_xy_conditional(s, "y", side),
        "z": _sigma_z_conditional(s, side),
    }
    basis = min(cond, key=cond.get)
    best = cond[basis]
    if not _pauli_guard(s):
        interior = _interior_conditional(s, side)
        if interior < best - _AXIS_TIE:
            basis, best = "interior", interior
    breakdown = DiscordBreakdown(s_marg, s_ab, cond["x"], cond["y"], cond["z"], basis)
    return _clip_tiny(s_marg - s_ab + best), breakdown


def mid(s: XState) -> float:
    """Measurement-induced disturbance S(dephased) - S(state).

    The dephasing basis is the marginal eigenbasis, which for X states is the
    sigma_z product basis; when a marginal is maximally mixed the eigenbasis
    is not unique and the sigma_z convention is kept.
    """
    return _clip_tiny(_entropy_of(s.diagonal) - _state_entropy(s))


def geometric_discord(s: XState, side: str = "a") -> float:
    """Hilbert-Schmidt distance (x2) to the nearest classical-quantum state."""
    bloch = to_bloch(s)
    w = bloch.x if side == "a" else bloch.y
    t_sq = (bloch.t1 ** 2, bloch.t2 ** 2, bloch.t3 ** 2)
    total = t_sq[0] + t_sq[1] + t_sq[2] + w * w
    return 0.25 * (total - max(t_sq[0], t_sq[1], t_sq[2] + w * w))


def min_nonlocality(s: XState, side: str = "a") -> float:
    """Measurement-induced nonlocality; branch switches when the local Bloch vector vanishes."""
    bloch = to_bloch(s)
    w = bloch.x if side == "a" else bloch.y
    t_sq = (bloch.t1 ** 2, bloch.t2 ** 2, bloch.t3 ** 2)
    if abs(w) > 1e-9:
        return 0.25 * (t_sq[0] + t_sq[1])
    return 0.25 * (t_sq[0] + t_sq[1] + t_sq[2] - min(t_sq))


def chsh_max(s: XState) -> float:
    """Maximal CHSH expectation 2*sqrt of the two largest squared t entries."""
    bloch = to_bloch(s)
    t_sq = sorted((bloch.t1 ** 2, bloch.t2 ** 2, bloch.t3 ** 2))
    return 2.0 * sqrt(t_sq[1] + t_sq[2])


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


# CSV column name -> evaluator; also the canonical measure ordering.
MEASURE_FUNCS = {
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

MEASURE_NAMES = tuple(MEASURE_FUNCS)


def measure_all(s: XState) -> MeasureSet:
    """Evaluate every measure on one state (measurements on side A)."""
    values = [MEASURE_FUNCS[name](s) for name in MEASURE_NAMES]
    return MeasureSet(*values)
