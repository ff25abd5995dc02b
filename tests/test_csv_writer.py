"""The sweep CSV writer: every cell equals Python's "%.11e" text of the float."""

import tracemalloc

import numpy as np
import pytest

from qrgflow import csvtext
from qrgflow.flow import SweepTable, effective_size, sweep

# nan, inf, zero and subnormal cells must reach fmt without a numpy warning
pytestmark = pytest.mark.filterwarnings("error")


def cells(values):
    """The writer's text of each value, split back into cells."""
    words = csvtext.cell_words(np.asarray(values, dtype=np.float64))
    return words.tobytes().translate(None, b"\0").decode("ascii").split(",")[:-1]


def percent_format(values):
    return ["%.11e" % value for value in np.asarray(values, dtype=np.float64).tolist()]


def reference_rows(table):
    """The row template the writer replaced: one "%.11e" per number, "n,N" per depth."""
    row = ",".join(["%.11e", "%s"] + ["%.11e"] * len(table.measures))
    depths = [f"{n},{effective_size(n)}" for n in table.iterations]
    lines = []
    for j, axis_value in enumerate(table.grid.tolist()):
        for depth, values in zip(depths, table.values[:, j, :].tolist()):
            lines.append(row % (axis_value, depth, *values) + "\n")
    return "".join(lines).encode("ascii")


def test_random_doubles_across_all_exponents():
    rng = np.random.default_rng(20240601)
    # every bit pattern is a double: all exponents, both signs, subnormals, inf and nan
    patterns = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max, 200_000,
                            dtype=np.int64, endpoint=True).view(np.float64)
    spread = rng.choice([-1.0, 1.0], 200_000) * 10.0 ** rng.uniform(-320, 308.25, 200_000)
    for values in (patterns, spread):
        assert cells(values) == percent_format(values)


def test_exact_twelve_digit_midpoints():
    rng = np.random.default_rng(7)
    digits = rng.integers(10**11, 10**12, 100_000).tolist()
    exponents = rng.integers(-307, 308, 100_000).tolist()
    signs = rng.choice(["", "-"], 100_000).tolist()
    values = [float(f"{s}{d // 10**11}.{d % 10**11:011d}5e{e}")
              for s, d, e in zip(signs, digits, exponents)]
    assert cells(values) == percent_format(values)


def test_zeros_subnormals_and_non_finite():
    tiny = np.finfo(np.float64).tiny
    values = [
        0.0, -0.0, 5e-324, -5e-324, 1.73e-322, 1e-310, np.nextafter(tiny, 0.0), tiny, -tiny,
        1.7976931348623157e308, -1.7976931348623157e308, np.inf, -np.inf, np.nan, -np.nan,
    ]
    assert cells(values) == percent_format(values)


def test_rounding_into_the_next_decade():
    values = [9.999999999995e-1, 9.9999999999995e5, -9.99999999999951e-300, 9.999999999994e-1,
              99999999999.5, 999999999999.5, 1e12 - 0.5]
    assert cells(values) == percent_format(values)


def test_powers_of_ten_and_their_neighbours():
    # floor(log10|x|) may miss by one right at a power of ten
    powers = np.array([float(f"1e{k}") for k in range(-307, 309)])
    values = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    assert cells(values) == percent_format(values)
    assert cells(-values) == percent_format(-values)


@pytest.mark.parametrize("chunk_rows", [1, 5, 9, 4096])
def test_chunked_writer_matches_row_template(chunk_rows, monkeypatch):
    monkeypatch.setattr(csvtext, "_CHUNK_ROWS", chunk_rows)
    for table in (
        sweep("xxz", 0.0, 2.5, 23, range(4)),
        sweep("xy", 0.0, 3.0, 11, [0, 3, 30], measures=["gd", "chsh_max", "concurrence"]),
        sweep("xxz", 0.0, 1e308, 7, range(31), measures=["mid"]),
    ):
        written = b"".join(csvtext.sweep_csv_chunks(table))
        assert written == reference_rows(table)


def _random_table(points):
    rng = np.random.default_rng(points)
    values = rng.random((7, points, 9)) * 10.0 ** rng.integers(-12, 3, (7, points, 9))
    values[rng.random(values.shape) < 0.2] = 0.0  # exact zeros take the fmt path
    grid = np.linspace(0.0, 2.5, points)
    return SweepTable("xxz", "delta", grid, tuple(range(7)), tuple("abcdefghi"), values,
                      np.zeros((7, points)))


def _writer_peak(table):
    tracemalloc.start()
    try:
        written = sum(len(chunk) for chunk in csvtext.sweep_csv_chunks(table))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, written


def test_writer_memory_does_not_grow_with_rows():
    small_peak, _ = _writer_peak(_random_table(1_000))
    large_peak, large_text = _writer_peak(_random_table(20_000))
    assert large_peak < 1.25 * small_peak
    assert large_peak < large_text / 10  # the whole text never exists at once
