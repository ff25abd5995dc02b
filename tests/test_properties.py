"""Property tests: orderings between the measures on drawn X states."""

import math

import pytest

from qrgflow import (
    XState,
    chsh_max,
    discord_optimal,
    discord_sigma_xy,
    discord_sigma_z,
    geometric_discord,
    mid,
    min_nonlocality,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

TSIRELSON = 2.0 * math.sqrt(2.0)


@st.composite
def xstates(draw):
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4).filter(
        lambda w: sum(w) > 1e-3))
    d1, d2, d3, d4 = (w / sum(weights) for w in weights)
    a = draw(st.floats(-1.0, 1.0)) * math.sqrt(d1 * d4)
    b = draw(st.floats(-1.0, 1.0)) * math.sqrt(d2 * d3)
    return XState(d1, d2, d3, d4, a, b)


@hypothesis.settings(max_examples=200, deadline=None, database=None, derandomize=True)
@hypothesis.given(xstates(), st.sampled_from("ab"))
def test_measure_orderings(s, side):
    qd, _ = discord_optimal(s, side=side)
    fixed = min(
        discord_sigma_xy(s, "x", side=side),
        discord_sigma_xy(s, "y", side=side),
        discord_sigma_z(s, side=side),
    )
    assert 0.0 <= qd <= fixed + 1e-12
    assert mid(s) >= qd - 1e-9
    assert geometric_discord(s, side=side) <= min_nonlocality(s, side=side) + 1e-9
    assert chsh_max(s) <= TSIRELSON + 1e-12
