"""Correlation measures: entropies, concurrence, discord variants, CHSH."""

import numpy as np
import pytest

from qrgflow import (
    DomainError,
    InvalidDistribution,
    XState,
    binary_mix_entropy,
    brute_force_discord,
    chsh_max,
    concurrence,
    discord_optimal,
    discord_sigma_xy,
    discord_sigma_z,
    geometric_discord,
    measure_all,
    mid,
    min_nonlocality,
    mutual_information,
    random_xstates,
    shannon_entropy,
    xstate_to_matrix,
    xxz_rho13,
    xy_rho13,
)
from qrgflow.measures import _Measures, _polar_search

BELL = XState(0.5, 0.0, 0.0, 0.5, 0.5, 0.0)
PRODUCT = XState(0.25, 0.25, 0.25, 0.25, 0.0, 0.0)
ONE_EXC = XState(4 / 6, 1 / 6, 1 / 6, 0.0, 0.0, 1 / 6)  # critical-chain edge pair


def test_shannon_entropy_uniform():
    assert shannon_entropy([0.25] * 4) == pytest.approx(2.0, abs=1e-15)


def test_shannon_entropy_rejects_bad_input():
    with pytest.raises(InvalidDistribution):
        shannon_entropy([0.5, 0.6])
    with pytest.raises(InvalidDistribution):
        shannon_entropy([1.2, -0.2])
    with pytest.raises(InvalidDistribution):
        shannon_entropy([float("nan"), 1.0])


def test_binary_mix_entropy_endpoints():
    assert binary_mix_entropy(0.0) == pytest.approx(1.0, abs=1e-15)
    assert binary_mix_entropy(1.0) == pytest.approx(0.0, abs=1e-15)
    # value at z = 1/2: H2((1 + sqrt(1/2))/2)
    assert binary_mix_entropy(0.5) == pytest.approx(0.6008760366928562, abs=1e-14)
    with pytest.raises(DomainError):
        binary_mix_entropy(1.5)
    with pytest.raises(DomainError):
        binary_mix_entropy(float("nan"))


def test_concurrence_extremes():
    assert concurrence(BELL) == pytest.approx(1.0, abs=1e-15)
    assert concurrence(PRODUCT) == 0.0
    assert concurrence(ONE_EXC) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_mutual_information():
    assert mutual_information(BELL) == pytest.approx(2.0, abs=1e-12)
    assert mutual_information(PRODUCT) == pytest.approx(0.0, abs=1e-12)
    assert mutual_information(xxz_rho13(0.0)) == pytest.approx(
        0.6225562489182657, abs=1e-12
    )


def test_bell_state_measures():
    # maximally entangled: every discord-type measure is extremal
    value, breakdown = discord_optimal(BELL)
    assert value == pytest.approx(1.0, abs=1e-12)
    assert breakdown.optimal_basis in ("x", "y", "z")
    assert discord_sigma_z(BELL) == pytest.approx(1.0, abs=1e-12)
    assert discord_sigma_xy(BELL, "x") == pytest.approx(1.0, abs=1e-12)
    assert mid(BELL) == pytest.approx(1.0, abs=1e-12)
    assert geometric_discord(BELL) == pytest.approx(0.5, abs=1e-15)
    assert min_nonlocality(BELL) == pytest.approx(0.5, abs=1e-15)
    assert chsh_max(BELL) == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-15)


def test_product_state_measures_vanish():
    assert discord_optimal(PRODUCT)[0] == pytest.approx(0.0, abs=1e-12)
    assert mid(PRODUCT) == pytest.approx(0.0, abs=1e-12)
    assert geometric_discord(PRODUCT) == 0.0
    assert min_nonlocality(PRODUCT) == 0.0


def test_gapless_chain_discord_value():
    s = xxz_rho13(0.0)
    value, breakdown = discord_optimal(s)
    assert value == pytest.approx(0.412154161151989, abs=1e-12)
    # t1 = t2 here, so the two equatorial bases tie; the x label wins
    assert breakdown.optimal_basis == "x"
    assert breakdown.cond_x == pytest.approx(breakdown.cond_y, abs=1e-15)
    assert breakdown.cond_x == pytest.approx(0.6008760366928562, abs=1e-14)


def test_discord_sides_differ_on_asymmetric_state():
    s = XState(0.5, 0.2, 0.2, 0.1, 0.05, 0.1)
    da = discord_optimal(s, side="a")[0]
    db = discord_optimal(s, side="b")[0]
    assert da == pytest.approx(db, abs=1e-12)  # x = y for this state
    t = XState(0.5, 0.3, 0.1, 0.1, 0.05, 0.1)
    # the diagonal-basis cost S(diag) - S(rho) carries no side label, so
    # side dependence can only enter through the equatorial axes
    assert discord_sigma_z(t, side="a") == pytest.approx(
        discord_sigma_z(t, side="b"), abs=1e-12
    )
    gap = abs(discord_sigma_xy(t, "x", side="a") - discord_sigma_xy(t, "x", side="b"))
    assert gap > 1e-3


def test_discord_axis_validation():
    with pytest.raises(DomainError):
        discord_sigma_xy(BELL, "z")


def test_optimal_discord_never_above_fixed_axes():
    for s in random_xstates(300, seed=13):
        value, _ = discord_optimal(s)
        fixed = min(
            discord_sigma_xy(s, "x"),
            discord_sigma_xy(s, "y"),
            discord_sigma_z(s),
        )
        assert value <= fixed + 1e-9


def test_discord_outside_guard():
    # sqrt(d1 d4) - sqrt(d2 d3) = 0.3 > |a| + |b| = 0.02: guard fails.  Both
    # local Bloch vectors vanish, so the conditional entropy is
    # h(|(t1 sin theta, 0, t3 cos theta)|) and the larger |t3| = 0.6 picks z.
    s = XState(0.4, 0.1, 0.1, 0.4, 0.01, 0.01)
    value, breakdown = discord_optimal(s)
    assert breakdown.optimal_basis == "z"
    fixed = min(
        discord_sigma_xy(s, "x"), discord_sigma_xy(s, "y"), discord_sigma_z(s)
    )
    assert value <= fixed + 1e-9
    assert value == pytest.approx(brute_force_discord(s)[0], abs=1e-9)


def _mp_discord(mp, s, side):
    """Discord at 40 digits from the density-matrix blocks, minimized over theta.

    The measurement axis runs over polar angles in the x-z and y-z planes; a
    coarse grid brackets the least conditional entropy, golden sections refine it.
    """
    rho = mp.matrix(xstate_to_matrix(s).tolist())
    if side == "b":
        perm = [0, 2, 1, 3]
        rho = mp.matrix([[rho[i, j] for j in perm] for i in perm])
    block = [[rho[2 * i:2 * i + 2, 2 * j:2 * j + 2] for j in (0, 1)] for i in (0, 1)]

    def entropy(values):
        return -mp.fsum(x * mp.log(x, 2) for x in values if x > 0)

    def pair_entropy(m):  # entropy of a 2x2 Hermitian block of trace p, times p
        p = mp.re(m[0, 0] + m[1, 1])
        rad = mp.sqrt(mp.re(m[0, 0] - m[1, 1]) ** 2 + 4 * abs(m[0, 1]) ** 2)
        return entropy([(p + rad) / 2, (p - rad) / 2]) + (p * mp.log(p, 2) if p > 0 else 0)

    def conditional(theta, phi):
        n = (mp.sin(theta) * mp.cos(phi), mp.sin(theta) * mp.sin(phi), mp.cos(theta))
        total = 0
        for sgn in (1, -1):
            proj = [[(1 + sgn * n[2]) / 2, sgn * (n[0] - 1j * n[1]) / 2],
                    [sgn * (n[0] + 1j * n[1]) / 2, (1 - sgn * n[2]) / 2]]
            total += pair_entropy(sum((proj[j][i] * block[i][j] for i in (0, 1) for j in (0, 1)),
                                      mp.zeros(2, 2)))
        return total

    golden = (mp.sqrt(5) - 1) / 2
    best = mp.inf
    for phi in (0, mp.pi / 2):
        grid = [k * mp.pi / 64 for k in range(33)]
        k = min(range(33), key=lambda i: conditional(grid[i], phi))
        lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, 32)]
        for _ in range(120):
            x1, x2 = hi - golden * (hi - lo), lo + golden * (hi - lo)
            if conditional(x1, phi) <= conditional(x2, phi):
                hi = x2
            else:
                lo = x1
        best = min(best, conditional((lo + hi) / 2, phi))
    marginal = block[0][0][0, 0] + block[0][0][1, 1], block[1][1][0, 0] + block[1][1][1, 1]
    d1, d2, d3, d4, a, b = (mp.mpf(float(x)) for x in (*s.diagonal, s.a, s.b))
    outer = mp.sqrt(((d1 - d4) / 2) ** 2 + a ** 2)
    inner = mp.sqrt(((d2 - d3) / 2) ** 2 + b ** 2)
    spectrum = [(d1 + d4) / 2 + outer, (d1 + d4) / 2 - outer,
                (d2 + d3) / 2 + inner, (d2 + d3) / 2 - inner]
    return entropy(marginal) - entropy(spectrum) + best


def test_interior_optimum_matches_high_precision_minimum():
    # An unguarded state whose optimal axis on side a lies at theta ~ 0.5624,
    # strictly between the Pauli axes, 1.630e-3 below the best of them.
    mpmath = pytest.importorskip("mpmath")
    s = random_xstates(4000, seed=2)[3042]
    value, breakdown = discord_optimal(s, side="a")
    assert breakdown.optimal_basis == "interior"
    fixed = min(breakdown.cond_x, breakdown.cond_y, breakdown.cond_z)
    gap = breakdown.s_a - breakdown.s_ab + fixed - value
    assert gap == pytest.approx(1.630e-3, abs=1e-6)
    with mpmath.workdps(40):
        for side in ("a", "b"):
            reference = _mp_discord(mpmath.mp, s, side)
            assert abs(discord_optimal(s, side=side)[0] - float(reference)) < 1e-12


def test_interior_search_never_beats_pauli_axes_under_guard():
    for s in random_xstates(500, seed=11):
        if _Measures(s).unguarded:
            continue
        for side in ("a", "b"):
            _, breakdown = discord_optimal(s, side=side)
            pauli = min(breakdown.cond_x, breakdown.cond_y, breakdown.cond_z)
            assert _polar_search(*_Measures(s, side).search_inputs) >= pauli - 1e-12


def test_mid_equals_sigma_z_discord_sampled():
    for s in random_xstates(300, seed=17):
        assert mid(s) == pytest.approx(discord_sigma_z(s, side="a"), abs=1e-12)
        assert mid(s) == pytest.approx(discord_sigma_z(s, side="b"), abs=1e-12)


def test_one_excitation_geometric_family():
    # gd = min_nl = C^2/2 = 1/18 and chsh = 2 sqrt(2)/3 on the critical state
    assert geometric_discord(ONE_EXC) == pytest.approx(1.0 / 18.0, abs=1e-15)
    assert min_nonlocality(ONE_EXC) == pytest.approx(1.0 / 18.0, abs=1e-15)
    assert chsh_max(ONE_EXC) == pytest.approx(2.0 * np.sqrt(2.0) / 3.0, abs=1e-15)
    assert mid(ONE_EXC) == pytest.approx(concurrence(ONE_EXC), abs=1e-15)


def test_anisotropic_chain_identities_spot():
    s = xy_rho13(0.6)
    assert geometric_discord(s) == pytest.approx(concurrence(s) / 4.0, abs=1e-14)
    assert chsh_max(s) == pytest.approx(
        4.0 * np.sqrt(min_nonlocality(s)), abs=1e-14
    )


def test_min_nonlocality_branch_switch():
    # vanishing local Bloch vector takes the sum-minus-min branch
    s = XState(0.3, 0.2, 0.2, 0.3, 0.1, 0.2)  # x = y = 0
    bloch_t = (2 * (s.a + s.b), 2 * (s.b - s.a), s.d1 - s.d2 - s.d3 + s.d4)
    expected = (sum(t * t for t in bloch_t) - min(t * t for t in bloch_t)) / 4.0
    assert min_nonlocality(s) == pytest.approx(expected, abs=1e-15)


def test_measure_all_consistent_with_parts():
    s = xxz_rho13(0.7)
    m = measure_all(s)
    assert m.concurrence == concurrence(s)
    assert m.qd_optimal == discord_optimal(s)[0]
    assert m.qd_sigma_x == discord_sigma_xy(s, "x")
    assert m.qd_sigma_y == discord_sigma_xy(s, "y")
    assert m.qd_sigma_z == discord_sigma_z(s)
    assert m.mid == mid(s)
    assert m.gd == geometric_discord(s)
    assert m.min_nl == min_nonlocality(s)
    assert m.chsh_max == chsh_max(s)
