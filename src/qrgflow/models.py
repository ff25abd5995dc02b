"""Three-site blocks, ground states, reduced states, and coupling maps.

Both chains are renormalized by three-site blocks with two bonds (1-2, 2-3)
and a J/4 interaction prefactor.  Basis convention throughout: |s1 s2 s3>
with site 1 the most significant bit and spin-up = 0, so the one-down XXZ
amplitudes sit at indices 1, 2, 4.

``MODELS`` describes each chain once (a ``Model`` record); every other module
reads the record instead of branching on the model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .elementwise import ops_of
from .errors import DomainError
from .xstate import XState

_SX = np.array([[0.0, 1.0], [1.0, 0.0]])
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]])
_XX = np.kron(_SX, _SX)
_YY = np.kron(np.array([[0.0, -1.0j], [1.0j, 0.0]]), np.array([[0.0, -1.0j], [1.0j, 0.0]])).real
_ZZ = np.kron(_SZ, _SZ)
_ID2 = np.eye(2)


@dataclass(frozen=True)
class XXZParams:
    """Anisotropic Heisenberg couplings: exchange j, anisotropy delta >= 0.

    j = 0.0 is admitted because the renormalized amplitude underflows to zero
    on the Neel side once delta overflows; negative or non-finite j is not.
    """

    j: float
    delta: float

    def __post_init__(self):
        if not math.isfinite(self.j) or self.j < 0.0:
            raise DomainError(f"exchange coupling must be finite and >= 0, got {self.j}")
        if math.isnan(self.delta) or self.delta < 0.0:
            raise DomainError(f"anisotropy must be >= 0, got {self.delta}")


@dataclass(frozen=True)
class XYParams:
    """XY couplings: exchange j, anisotropy |gamma| <= 1."""

    j: float
    gamma: float

    def __post_init__(self):
        if not math.isfinite(self.j) or self.j < 0.0:
            raise DomainError(f"exchange coupling must be finite and >= 0, got {self.j}")
        if not abs(self.gamma) <= 1.0:
            raise DomainError(f"anisotropy must satisfy |gamma| <= 1, got {self.gamma}")


@dataclass(frozen=True, eq=False)
class BlockState8:
    """Real unit-norm amplitude vector of a three-site block state."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=float)
        if amp.shape != (8,):
            raise DomainError(f"expected 8 amplitudes, got shape {amp.shape}")
        if abs(np.dot(amp, amp) - 1.0) > 1e-10:
            raise DomainError("block state is not normalized")
        object.__setattr__(self, "amplitudes", amp)


def q_of_delta(delta: float) -> float:
    """Ground-sector root q = -(delta + sqrt(delta^2 + 8))/2; q(1) = -2."""
    ops = ops_of(delta)
    if not ops.all(delta >= 0.0):  # NaN fails it too
        raise DomainError(f"delta must be >= 0, got {delta}")
    return -0.5 * (delta + ops.sqrt(delta * delta + 8.0))


def xxz_rg_step(j: float, delta: float) -> tuple[float, float]:
    """One coupling-map step J' = J (2q/(2+q^2))^2, delta' = delta q^2/4."""
    q = q_of_delta(delta)
    q2 = q * q
    # 4 q^2/(2+q^2)^2 rewritten to survive q2 = inf
    j_factor = 4.0 / (q2 + 4.0 + 4.0 / q2)
    return j * j_factor, delta * q2 / 4.0


def xxz_ground_states(delta: float) -> tuple[BlockState8, BlockState8]:
    """Degenerate ground doublet of the open three-site XXZ block.

    First ket lives in the one-down sector (indices 1, 2, 4 with amplitudes
    1, q, 1), the second in its spin-flipped mirror (indices 3, 5, 6).
    """
    q = q_of_delta(delta)
    norm = np.sqrt(2.0 + q * q)
    first = np.zeros(8)
    first[[1, 2, 4]] = np.array([1.0, q, 1.0]) / norm
    second = np.zeros(8)
    second[[3, 5, 6]] = np.array([1.0, q, 1.0]) / norm
    return BlockState8(first), BlockState8(second)


def xxz_rho13(delta: float) -> XState:
    """Sites-(1,3) reduced state of the first XXZ ground ket.

    Equals diag(q^2, 1, 1, 0)/(2+q^2) with inner coherence b = 1/(2+q^2).
    Written via 1/(1 + 2/q^2) so the delta -> inf asymptote stays finite.
    """
    q = q_of_delta(delta)
    q2 = q * q
    d1 = 1.0 / (1.0 + 2.0 / q2)
    w = 1.0 / (2.0 + q2)
    return XState(d1, w, w, 0.0, 0.0, w)


def xy_rg_step(j: float, gamma: float) -> tuple[float, float]:
    """One coupling-map step J' = J (3g^2+1)/(2(1+g^2)), g' = (g^3+3g)/(3g^2+1)."""
    g2 = gamma * gamma
    # the factor is <= 1 for |g| <= 1, so taking it first keeps a J near the float maximum finite
    j_next = j * ((3.0 * g2 + 1.0) / (2.0 * (1.0 + g2)))
    g_next = (gamma * g2 + 3.0 * gamma) / (3.0 * g2 + 1.0)
    # the exact map never leaves [-1, 1]; clamp rounding overshoot near +-1
    ops = ops_of(g_next)
    return j_next, ops.max(-1.0, ops.min(1.0, g_next))


def xy_ground_states(gamma: float) -> tuple[BlockState8, BlockState8]:
    """Degenerate ground doublet of the open three-site XY block.

    First ket spans indices 1, 2, 4, 7 (odd down-spin parity); the second is
    its exact spin-flip partner on indices 0, 3, 5, 6.
    """
    if not abs(gamma) <= 1.0:
        raise DomainError(f"|gamma| must be <= 1, got {gamma}")
    root = np.sqrt(1.0 + gamma * gamma)
    norm = 2.0 * root
    first = np.zeros(8)
    first[[1, 2, 4, 7]] = np.array([-root, np.sqrt(2.0), -root, np.sqrt(2.0) * gamma]) / norm
    second = np.zeros(8)
    second[[0, 3, 5, 6]] = np.array([-np.sqrt(2.0) * gamma, root, -np.sqrt(2.0), root]) / norm
    return BlockState8(first), BlockState8(second)


def xy_rho13(gamma: float) -> XState:
    """Sites-(1,3) reduced state of the first XY ground ket."""
    if not ops_of(gamma).all(abs(gamma) <= 1.0):
        raise DomainError(f"|gamma| must be <= 1, got {gamma}")
    g2 = gamma * gamma
    denom = 4.0 * (1.0 + g2)
    return XState(
        2.0 / denom,
        (1.0 + g2) / denom,
        (1.0 + g2) / denom,
        2.0 * g2 / denom,
        2.0 * gamma / denom,
        0.25,
    )


def g_of_gamma(gamma: float) -> float:
    """Plotting variable g = (1+gamma)/(1-gamma); pole at gamma = 1."""
    if gamma == 1.0:
        raise DomainError("g diverges at gamma = 1")
    return (1.0 + gamma) / (1.0 - gamma)


def gamma_of_g(g: float) -> float:
    """Inverse map gamma = (g-1)/(g+1); pole at g = -1."""
    if not ops_of(g).all(g != -1.0):
        raise DomainError("gamma diverges at g = -1")
    return (g - 1.0) / (g + 1.0)


def _xxz_slope(delta: float) -> float:
    """Exact d delta'/d delta = q^2/4 + delta q q'/2 with q' = -(1 + delta/sqrt(delta^2+8))/2."""
    q = q_of_delta(delta)
    dq = -0.5 * (1.0 + delta / math.sqrt(delta * delta + 8.0))
    return q * q / 4.0 + delta * q * dq / 2.0


def _xy_slope(gamma: float) -> float:
    """Exact d gamma'/d gamma = 3 (1 - gamma^2)^2 / (3 gamma^2 + 1)^2."""
    g2 = gamma * gamma
    return 3.0 * (1.0 - g2) ** 2 / (3.0 * g2 + 1.0) ** 2


@dataclass(frozen=True)
class Model:
    """One chain: its couplings, coupling map, block states and plotting axis.

    ``step`` maps (j, coupling) to (j', coupling'), ``edge_state`` takes a
    coupling and ``coupling_of_axis`` an axis value: each takes floats, or
    arrays elementwise, with the same rounding.  ``bond`` and ``energy`` take
    (j, coupling) floats, ``slope`` and ``ground_states`` a coupling, and
    ``bell_strict`` an array of couplings.
    They call the module-level functions through their names, so a wrapper
    installed on this module (a profiler, a test double) sees every call.
    """

    name: str
    params: type
    coupling: str  # params field the map flows besides j
    axis: str  # sweep and plotting variable
    coupling_of_axis: Callable[[float], float]
    axis_range: tuple[float, float]  # default sweep range
    coupling_range: tuple[float, float]  # couplings sampled by the block checks
    fixed_points: tuple[float, ...]
    step: Callable[[float, float], tuple[float, float]]
    slope: Callable[[float], float]  # exact derivative of the coupling map
    edge_state: Callable[[float], XState]
    ground_states: Callable[[float], tuple[BlockState8, BlockState8]]
    bond: Callable[[float, float], np.ndarray]  # two-site bond Hamiltonian, J/4 prefactor included
    energy: Callable[[float, float], float]  # block ground energy
    bell_strict: Callable  # couplings where the Bell bound holds with margin


_ENTRIES = (
    Model(
        name="xxz",
        params=XXZParams,
        coupling="delta",
        axis="delta",
        coupling_of_axis=lambda delta: delta,  # the axis is the coupling
        axis_range=(0.0, 2.5),
        coupling_range=(0.0, 2.5),
        fixed_points=(0.0, 1.0),
        step=lambda j, delta: xxz_rg_step(j, delta),
        slope=_xxz_slope,
        edge_state=lambda delta: xxz_rho13(delta),
        ground_states=lambda delta: xxz_ground_states(delta),
        bond=lambda j, delta: j / 4.0 * (_XX + _YY + delta * _ZZ),
        energy=lambda j, delta: j * q_of_delta(delta) / 2.0,
        # basin of the delta = 0 sink; the bound saturates only as delta -> inf
        bell_strict=lambda delta: delta <= 1.0,
    ),
    Model(
        name="xy",
        params=XYParams,
        coupling="gamma",
        axis="g",
        coupling_of_axis=gamma_of_g,
        axis_range=(0.0, 3.0),
        coupling_range=(-1.0, 1.0),
        fixed_points=(-1.0, 0.0, 1.0),
        step=lambda j, gamma: xy_rg_step(j, gamma),
        slope=_xy_slope,
        edge_state=lambda gamma: xy_rho13(gamma),
        ground_states=lambda gamma: xy_ground_states(gamma),
        bond=lambda j, gamma: j / 4.0 * ((1.0 + gamma) * _XX + (1.0 - gamma) * _YY),
        energy=lambda j, gamma: -j * np.sqrt(2.0 * (1.0 + gamma ** 2)) / 2.0,
        # the bound saturates at the sinks gamma = +-1
        bell_strict=lambda gamma: abs(gamma) < 0.999,
    ),
)

MODELS = {model.name: model for model in _ENTRIES}
_MODEL_OF_PARAMS = {model.params: model for model in _ENTRIES}


def get_model(name: str) -> Model:
    """Registry entry for a model name."""
    try:
        return MODELS[name]
    except KeyError:
        raise DomainError(f"unknown model {name!r}") from None


def model_of(params) -> Model:
    """Registry entry for a params instance."""
    try:
        return _MODEL_OF_PARAMS[type(params)]
    except KeyError:
        raise DomainError(f"unsupported parameter type {type(params).__name__}") from None


def fixed_points(model: str) -> list[tuple[float, str]]:
    """Coupling-map fixed points, stable where the exact |map'| is below 1."""
    entry = get_model(model)
    return [(p, "stable" if abs(entry.slope(p)) < 1.0 else "unstable") for p in entry.fixed_points]


def block_hamiltonian(bond: np.ndarray) -> np.ndarray:
    """Dense 8x8 Hamiltonian of the open three-site block whose two bonds are `bond`."""
    return np.kron(bond, _ID2) + np.kron(_ID2, bond)


def reduced_state(params) -> XState:
    """Edge-pair state of the first ground ket after tracing the middle site."""
    model = model_of(params)
    return model.edge_state(getattr(params, model.coupling))
