"""The array primitives round every element exactly as the float primitives do."""

import numpy as np

from qrgflow.elementwise import ARRAYS, FLOATS, ops_of

N = 200_000


def _same_bits(array, floats) -> bool:
    return np.array_equal(np.asarray(array).view(np.int64), np.array(floats).view(np.int64))


def _samples(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.random(N) * rng.choice([1e-3, 0.5, 1.0, 2.0, 1e3], N)


def test_square_sqrt_and_hypot_match_bit_for_bit():
    # x * x and np.square differ from x ** 2 on about 1 input in 1 000
    x, y = _samples(1), _samples(2)
    xs, ys = x.tolist(), y.tolist()
    assert _same_bits(ARRAYS.square(x), [FLOATS.square(v) for v in xs])
    assert _same_bits(ARRAYS.sqrt(x), [FLOATS.sqrt(v) for v in xs])
    assert _same_bits(ARRAYS.hypot(x, y), [float(FLOATS.hypot(u, v)) for u, v in zip(xs, ys)])


def test_entropy_matches_bit_for_bit():
    rng = np.random.default_rng(3)
    p = rng.dirichlet(np.ones(4), N // 4).T
    p[:, ::7] = 0.0  # zero entries
    p[0, 1::11] = 1.0 + 1e-12  # rounding above 1 adds 0
    p[1, 2::13] = -1e-12  # rounding below 0 adds 0
    rows = p.T.tolist()
    assert _same_bits(ARRAYS.entropy(*p), [FLOATS.entropy(*row) for row in rows])


def test_ops_of_picks_arrays_when_any_value_is_one():
    assert ops_of(0.5, np.float64(0.25)) is FLOATS
    assert ops_of(0.5, np.zeros(3)) is ARRAYS
