"""Cross-checks between closed forms and independent brute-force routes.

Every check returns a CheckResult rather than raising, so the full battery
always runs and the CLI can print one line per check.  A sample count below 1
is a DomainError, never a PASS on nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .flow import sweep
from .measures import chsh_max, discord_optimal, discord_sigma_z, measure_all, mid
from .models import MODELS, block_hamiltonian
from .oracle import brute_force_chsh, brute_force_discord, diag_symmetric, partial_trace_mid
from .xstate import XState, from_bloch, random_xstates, spectrum, to_bloch, xstate_to_matrix

_ORACLE_TOL = 1e-4  # closed form vs brute-force oracle, discord and CHSH alike


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def _require_samples(**counts: int) -> None:
    """A check that examined nothing must not pass: every count must be at least 1."""
    empty = [f"{name}={value}" for name, value in counts.items() if value < 1]
    if empty:
        raise DomainError(f"sample counts must be >= 1, got {', '.join(empty)}")


def check_mid_identity(states: int, seed: int = 42) -> CheckResult:
    """MID must coincide with the sigma-z measured discord on both sides."""
    _require_samples(states=states)
    worst = 0.0
    for s in random_xstates(states, seed=seed):
        m = mid(s)
        worst = max(
            worst,
            abs(m - discord_sigma_z(s, side="a")),
            abs(m - discord_sigma_z(s, side="b")),
        )
    return CheckResult(
        "mid-equals-sigma-z-discord",
        worst < 1e-10,
        f"{states} states, max |mid - qd_sigma_z| = {worst:.3e}",
    )


def check_discord_oracle(states: int, seed: int = 42) -> CheckResult:
    """Brute-force measurement search vs the closed-form discord minimum."""
    _require_samples(states=states)
    worst = 0.0
    floor = 0.0  # how far the oracle ever dips below the closed form
    for k, s in enumerate(random_xstates(states, seed=seed)):
        side = "a" if k % 2 == 0 else "b"
        analytic, _ = discord_optimal(s, side=side)
        numeric, _ = brute_force_discord(s, side=side)
        worst = max(worst, abs(numeric - analytic))
        floor = max(floor, analytic - numeric)
    ok = worst < _ORACLE_TOL and floor < 1e-6
    return CheckResult(
        "discord-oracle-agreement",
        ok,
        f"{states} states, max |oracle - closed| = {worst:.3e}, "
        f"max undershoot = {floor:.3e}",
    )


def check_chsh_oracle(states: int, seed: int = 42) -> CheckResult:
    _require_samples(states=states)
    worst = 0.0
    for s in random_xstates(states, seed=seed):
        worst = max(worst, abs(brute_force_chsh(s) - chsh_max(s)))
    return CheckResult(
        "chsh-oracle-agreement",
        worst < _ORACLE_TOL,
        f"{states} states, max |oracle - closed| = {worst:.3e}",
    )


def _spin_flip(s: XState) -> XState:
    # Simultaneous flip of both qubits: swaps the outer populations.
    return XState(s.d4, s.d3, s.d2, s.d1, s.a, s.b)


def check_ground_blocks(params_per_model: int, seed: int = 42) -> CheckResult:
    """Dense diagonalisation of the three-site block vs the closed-form kets.

    Checks the twofold ground degeneracy, the energy, the eigenvector
    residuals, and that tracing out the middle site reproduces the closed-form
    two-site state (the partner ket gives its spin-flipped twin).
    """
    _require_samples(params_per_model=params_per_model)
    rng = np.random.default_rng(seed)
    worst_resid = 0.0
    worst_rho = 0.0
    worst_energy = 0.0
    min_gap = math.inf
    for model in MODELS.values():
        for _ in range(params_per_model):
            coupling = rng.uniform(*model.coupling_range)
            h = block_hamiltonian(model.bond(1.0, coupling))
            eig = diag_symmetric(h)
            e0 = model.energy(1.0, coupling)
            worst_energy = max(
                worst_energy,
                abs(eig.eigenvalues[0] - e0),
                abs(eig.eigenvalues[1] - e0),
            )
            min_gap = min(min_gap, eig.eigenvalues[2] - eig.eigenvalues[1])
            first, second = model.ground_states(coupling)
            for ket in (first, second):
                resid = np.abs(h @ ket.amplitudes - e0 * ket.amplitudes).max()
                worst_resid = max(worst_resid, resid)
            edge = model.edge_state(coupling)
            closed = xstate_to_matrix(edge)
            flipped = xstate_to_matrix(_spin_flip(edge))
            worst_rho = max(
                worst_rho,
                np.abs(partial_trace_mid(first.amplitudes) - closed).max(),
                np.abs(partial_trace_mid(second.amplitudes) - flipped).max(),
            )
    ok = (
        worst_energy < 1e-10
        and min_gap > 1e-8
        and worst_resid < 1e-10
        and worst_rho < 1e-12
    )
    return CheckResult(
        "ground-blocks",
        ok,
        f"{2 * params_per_model} blocks, energy err {worst_energy:.3e}, "
        f"gap {min_gap:.3e}, residual {worst_resid:.3e}, state err {worst_rho:.3e}",
    )


def check_bell_bound(points: int) -> CheckResult:
    """No CHSH violation anywhere on the default sweeps, depths 0..6.

    The bound saturates exactly at flow sinks (isotropic limits), so the
    global check allows equality; strictly inside the attracting regions the
    bound must hold with margin.
    """
    _require_samples(points=points)
    overall = 0.0
    strict = 0.0
    for model in MODELS.values():
        table = sweep(model.name, *model.axis_range, points, range(7), measures=["chsh_max"])
        vals = table.values[:, :, 0]
        overall = max(overall, float(vals.max()))
        inside = model.bell_strict(table.couplings)
        if inside.any():
            strict = max(strict, float(vals[inside].max()))

    ok = overall <= 2.0 + 1e-12 and strict < 2.0 - 1e-9
    return CheckResult(
        "bell-bound",
        ok,
        f"max over sweeps = {overall:.12f}, max inside attracting region = {strict:.12f}",
    )


def check_spectrum_oracle(states: int, seed: int = 42) -> CheckResult:
    _require_samples(states=states)
    worst = 0.0
    for s in random_xstates(states, seed=seed):
        eig = diag_symmetric(xstate_to_matrix(s))
        worst = max(worst, np.abs(eig.eigenvalues[::-1] - spectrum(s)).max())
    return CheckResult(
        "spectrum-oracle-agreement",
        worst < 1e-10,
        f"{states} states, max eigenvalue error = {worst:.3e}",
    )


def check_jacobi_reconstruction(matrices: int, seed: int = 42) -> CheckResult:
    _require_samples(matrices=matrices)
    rng = np.random.default_rng(seed)
    worst_recon = 0.0
    worst_ortho = 0.0
    eye = np.eye(8)
    for _ in range(matrices):
        raw = rng.standard_normal((8, 8))
        m = (raw + raw.T) / 2.0
        eig = diag_symmetric(m)
        v = eig.eigenvectors
        worst_recon = max(worst_recon, np.abs(v @ np.diag(eig.eigenvalues) @ v.T - m).max())
        worst_ortho = max(worst_ortho, np.abs(v.T @ v - eye).max())
    ok = worst_recon < 1e-10 and worst_ortho < 1e-10
    return CheckResult(
        "jacobi-reconstruction",
        ok,
        f"{matrices} matrices, reconstruction err {worst_recon:.3e}, "
        f"orthogonality err {worst_ortho:.3e}",
    )


def check_bloch_round_trip(states: int, seed: int = 42) -> CheckResult:
    _require_samples(states=states)
    worst = 0.0
    for s in random_xstates(states, seed=seed):
        back = from_bloch(to_bloch(s))
        worst = max(
            worst,
            abs(back.d1 - s.d1), abs(back.d2 - s.d2),
            abs(back.d3 - s.d3), abs(back.d4 - s.d4),
            abs(back.a - s.a), abs(back.b - s.b),
        )
    return CheckResult(
        "bloch-round-trip",
        worst < 1e-12,
        f"{states} states, max field error = {worst:.3e}",
    )


def check_measure_battery(states: int, seed: int = 42) -> CheckResult:
    """Structural sanity of the full measure set on random states."""
    _require_samples(states=states)
    bad = ""
    for s in random_xstates(states, seed=seed):
        m = measure_all(s)
        if not 0.0 <= m.concurrence <= 1.0:
            bad = f"concurrence {m.concurrence} outside [0, 1]"
        elif m.qd_optimal > min(m.qd_sigma_x, m.qd_sigma_y, m.qd_sigma_z) + 1e-9:
            bad = "optimal discord above a fixed-axis value"
        elif m.mid < m.qd_optimal - 1e-9:
            bad = "mid below optimal discord"
        elif m.gd < -1e-12 or m.min_nl < m.gd - 1e-9:
            bad = "geometric ordering violated"
        elif not 0.0 <= m.chsh_max <= 2.0 * math.sqrt(2.0) + 1e-9:
            bad = f"chsh value {m.chsh_max} outside Tsirelson range"
        if bad:
            break
    return CheckResult(
        "measure-battery",
        bad == "",
        bad or f"{states} states, all ordering and range constraints hold",
    )


def run_all(
    oracle_states: int = 500,
    random_states: int = 10000,
    params_per_model: int = 50,
    sweep_points: int = 500,
    jacobi_matrices: int = 1000,
    seed: int = 42,
    inject_fault: bool = False,
) -> list[CheckResult]:
    """Full verification battery; each entry is independent of the others."""
    _require_samples(oracle_states=oracle_states, random_states=random_states,
                     params_per_model=params_per_model, sweep_points=sweep_points,
                     jacobi_matrices=jacobi_matrices)
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    results = [
        check_bloch_round_trip(states=max(1, random_states // 5), seed=seed),
        check_spectrum_oracle(states=max(1, random_states // 20), seed=seed),
        check_jacobi_reconstruction(matrices=jacobi_matrices, seed=seed),
        check_mid_identity(states=random_states, seed=seed),
        check_measure_battery(states=max(1, random_states // 5), seed=seed),
        check_ground_blocks(params_per_model=params_per_model, seed=seed),
        check_bell_bound(points=sweep_points),
        check_chsh_oracle(states=oracle_states, seed=seed),
        check_discord_oracle(states=oracle_states, seed=seed),
    ]
    if inject_fault:
        results.append(
            CheckResult("fault-injection", False, "deliberately failing check")
        )
    return results
