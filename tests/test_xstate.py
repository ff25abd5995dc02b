"""X-structured density matrix container, conversions, and validation."""

import numpy as np
import pytest

from qrgflow import (
    NotDensityMatrix,
    NotXStructured,
    XState,
    from_bloch,
    marginal_a,
    marginal_b,
    random_xstates,
    spectrum,
    to_bloch,
    xstate_from_matrix,
    xstate_to_matrix,
)

BELL = XState(0.5, 0.0, 0.0, 0.5, 0.5, 0.0)  # (|00> + |11>)/sqrt(2)


def test_fields_and_diagonal():
    s = XState(0.4, 0.3, 0.2, 0.1, 0.1, 0.05)
    assert s.diagonal == (0.4, 0.3, 0.2, 0.1)


def test_matrix_round_trip():
    s = XState(0.4, 0.3, 0.2, 0.1, 0.1, 0.05)
    m = xstate_to_matrix(s)
    back = xstate_from_matrix(m)
    assert back.d1 == pytest.approx(s.d1, abs=1e-15)
    assert back.a == pytest.approx(s.a, abs=1e-15)
    assert back.b == pytest.approx(s.b, abs=1e-15)


def test_from_matrix_takes_coherence_moduli():
    # complex anti-diagonal phases carry no weight for any measure here
    m = np.array(
        [
            [0.4, 0, 0, 0.1j],
            [0, 0.3, 0.05 * np.exp(0.7j), 0],
            [0, 0.05 * np.exp(-0.7j), 0.2, 0],
            [-0.1j, 0, 0, 0.1],
        ],
        dtype=complex,
    )
    s = xstate_from_matrix(m)
    assert s.a == pytest.approx(0.1, abs=1e-15)
    assert s.b == pytest.approx(0.05, abs=1e-15)


def test_from_matrix_rejects_off_pattern_entries():
    m = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
    m[0, 1] = 1e-6
    m[1, 0] = 1e-6
    with pytest.raises(NotXStructured):
        xstate_from_matrix(m)
    m[0, 1] = m[1, 0] = np.nan
    with pytest.raises(NotXStructured):
        xstate_from_matrix(m)


def test_from_matrix_rejects_bad_trace():
    with pytest.raises(NotDensityMatrix):
        xstate_from_matrix(np.diag([0.5, 0.5, 0.5, 0.5]))


def test_from_matrix_rejects_non_hermitian():
    m = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
    m[0, 3] = 0.1
    m[3, 0] = 0.2
    with pytest.raises(NotDensityMatrix):
        xstate_from_matrix(m)


def test_overlarge_coherence_rejected():
    # |b| must not exceed sqrt(d2 d3)
    with pytest.raises(NotDensityMatrix):
        XState(0.25, 0.25, 0.25, 0.25, 0.0, 0.3)


def test_negative_population_rejected():
    with pytest.raises(NotDensityMatrix):
        XState(-0.1, 0.5, 0.3, 0.3, 0.0, 0.0)


def test_one_excitation_matrix_fields():
    # diag(4,1,1,0)/6 with inner coherence 1/6
    m = np.array(
        [[4, 0, 0, 0], [0, 1, 1, 0], [0, 1, 1, 0], [0, 0, 0, 0]], dtype=float
    ) / 6.0
    s = xstate_from_matrix(m)
    assert s.d1 == pytest.approx(4.0 / 6.0, abs=1e-15)
    assert s.d2 == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert s.d3 == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert s.d4 == 0.0
    assert s.a == 0.0
    assert s.b == pytest.approx(1.0 / 6.0, abs=1e-15)


def test_bloch_components_known():
    s = XState(4 / 6, 1 / 6, 1 / 6, 0.0, 0.0, 1 / 6)
    bloch = to_bloch(s)
    assert bloch.x == pytest.approx(2 / 3, abs=1e-15)
    assert bloch.y == pytest.approx(2 / 3, abs=1e-15)
    assert bloch.t1 == pytest.approx(1 / 3, abs=1e-15)
    assert bloch.t2 == pytest.approx(1 / 3, abs=1e-15)
    assert bloch.t3 == pytest.approx(1 / 3, abs=1e-15)


def test_bloch_components_bell():
    bloch = to_bloch(BELL)
    assert (bloch.x, bloch.y) == (0.0, 0.0)
    assert bloch.t1 == pytest.approx(1.0, abs=1e-15)
    assert bloch.t2 == pytest.approx(-1.0, abs=1e-15)
    assert bloch.t3 == pytest.approx(1.0, abs=1e-15)


def test_bloch_round_trip_random():
    for s in random_xstates(200, seed=7):
        back = from_bloch(to_bloch(s))
        for name in ("d1", "d2", "d3", "d4", "a", "b"):
            assert getattr(back, name) == pytest.approx(getattr(s, name), abs=1e-13)


def test_from_bloch_rejects_unphysical():
    from qrgflow.xstate import BlochX

    with pytest.raises(NotDensityMatrix):
        from_bloch(BlochX(0.0, 0.0, 2.0, 0.0, 0.0))


def test_spectrum_bell_is_pure():
    lam = spectrum(BELL)
    assert lam[0] == pytest.approx(1.0, abs=1e-15)
    assert np.abs(lam[1:]).max() < 1e-15


def test_spectrum_descending_and_normalized():
    for s in random_xstates(100, seed=11):
        lam = spectrum(s)
        assert np.all(np.diff(lam) <= 1e-15)
        assert lam.sum() == pytest.approx(1.0, abs=1e-12)
        assert lam.min() > -1e-12


def test_marginals():
    s = XState(0.4, 0.3, 0.2, 0.1, 0.1, 0.05)
    (a0, a1), (b0, b1) = marginal_a(s), marginal_b(s)
    assert (a0, a1) == pytest.approx((0.7, 0.3), abs=1e-15)
    assert (b0, b1) == pytest.approx((0.6, 0.4), abs=1e-15)


def test_random_xstates_reproducible():
    first = random_xstates(5, seed=3)
    second = random_xstates(5, seed=3)
    for s, t in zip(first, second):
        assert s.diagonal == t.diagonal and s.a == t.a and s.b == t.b


def test_random_xstates_cover_coherence_signs():
    states = random_xstates(50, seed=5)
    assert any(s.a < 0 for s in states) and any(s.a > 0 for s in states)
