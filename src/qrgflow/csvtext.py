"""The text of every number the CLI writes: ``fmt`` for one float, and the same
bytes for whole arrays in ``cell_words`` and the sweep CSV writer."""

from __future__ import annotations

import functools
import sys

import numpy as np

from .flow import effective_size


def fmt(value: float) -> str:
    """12 significant digits, "%.11e"."""
    return f"{float(value):.11e}"


# Exact fmt text of whole float arrays.  A cell is 20 ASCII bytes held as five
# uint32 words, "[-]d.d" "dddd" "dddd" "dde±" "[h]to,", where a NUL byte marks
# an unused sign or hundreds-of-exponent slot and is deleted when the text is
# written.  The digits are those of rint(|x| 10^(11-e)), e = floor(log10|x|),
# scaled by two correctly rounded powers of ten: four roundings, a relative
# error below 4.5e-16, so under 4.5e-4 on a mantissa below 1e12.  A cell whose
# scaled mantissa lies within 1e-3 of a rounding tie or outside [1e11, 1e12),
# and every zero, subnormal and non-finite cell, takes its text from fmt.
_CELL_WORDS = 5


def _ascii_words(texts, width: int) -> np.ndarray:
    """ASCII strings, NUL-padded on the right, as rows of `width` uint32 words."""
    data = "".join(text.ljust(4 * width, "\0") for text in texts).encode("ascii")
    return np.frombuffer(data, np.uint32).reshape(len(texts), width)


def _word_table(*chars) -> np.ndarray:
    """uint32 words whose four bytes are the given broadcast ASCII codes, in C order."""
    return np.stack(np.broadcast_arrays(*chars), axis=-1).astype(np.uint8).view(np.uint32).ravel()


_E_MIN = -308  # decimal exponent of the least normal float; the largest has 308


@functools.cache
def _tables():
    """Word tables of the cell text and the two scales of each exponent, built on first use."""
    d = np.arange(ord("0"), ord("9") + 1)
    tens, units = d[:, None], d  # digits of a two-digit index
    negative = np.array([False, True])[:, None, None]  # index + 100 if negative
    hundreds = np.where(d > ord("0"), d, 0)[:, None, None]
    powers = np.array([float(f"1e{k}") for k in range(-149, 161)])  # correctly rounded
    shift = 11 - np.arange(_E_MIN, 309)  # 10^shift = 10^(shift//2) * 10^(shift - shift//2)
    return (
        _word_table(np.where(negative, ord("-"), 0), tens, ord("."), units),  # "[-]d.d"
        _word_table(d[:, None, None, None], d[:, None, None], tens, units),  # "dddd"
        _word_table(tens, units, ord("e"), np.where(negative, ord("-"), ord("+"))),  # "dde±"
        _word_table(hundreds, tens, units, ord(",")),  # "[h]to," by |e|
        powers[shift // 2 + 149],
        powers[shift - shift // 2 + 149],
    )


def cell_words(x: np.ndarray) -> np.ndarray:
    """fmt text of each entry of a 1-D float64 array, as (n, 5) words ending in ','."""
    lead, quad, tail, exponent, scale_a, scale_b = _tables()
    magnitude = np.abs(x)
    fast = (magnitude >= sys.float_info.min) & (magnitude <= sys.float_info.max)
    magnitude[~fast] = 1.0
    e = np.floor(np.log10(magnitude)).astype(np.intp)
    scaled = magnitude * scale_a.take(e - _E_MIN) * scale_b.take(e - _E_MIN)
    mantissa = np.rint(scaled)
    fast &= (scaled >= 1e11) & (mantissa < 1e12) & (np.abs(scaled - mantissa) < 0.499)
    mantissa[~fast] = 1e11
    high = np.floor(mantissa / 1e6)  # exact: integers below 2^53
    low = (mantissa - high * 1e6).astype(np.intp)
    high = high.astype(np.intp)
    words = np.empty((x.size, _CELL_WORDS), np.uint32)
    words[:, 0] = lead.take(high // 10000 + 100 * np.signbit(x))
    words[:, 1] = quad.take(high % 10000)
    words[:, 2] = quad.take(low // 100)
    words[:, 3] = tail.take(low % 100 + 100 * (e < 0))
    words[:, 4] = exponent.take(np.abs(e))
    slow = np.flatnonzero(~fast)
    if slow.size:  # mostly exact zeros: one fmt call per distinct bit pattern
        bits, inverse = np.unique(x[slow].view(np.int64), return_inverse=True)
        cells = [fmt(value).ljust(19, "\0") + "," for value in bits.view(np.float64).tolist()]
        words[slow] = _ascii_words(cells, _CELL_WORDS)[inverse]
    return words


_CHUNK_ROWS = 512  # CSV rows formatted per numpy pass; bounds the writer's memory


def sweep_csv_chunks(table):
    """The data rows of a sweep CSV (axis-major, iteration minor) as bytes, chunk by chunk."""
    depths = len(table.iterations)
    measures = table.values.shape[2]
    labels = [f"{n},{effective_size(n)}," for n in table.iterations]
    label_words = _ascii_words(labels, -(-max(map(len, labels)) // 4))
    step = max(1, _CHUNK_ROWS // depths)
    for start in range(0, table.grid.size, step):
        stop = min(start + step, table.grid.size)
        numbers = np.empty(((stop - start) * depths, 1 + measures))
        numbers[:, 0] = np.repeat(table.grid[start:stop], depths)
        numbers[:, 1:] = table.values[:, start:stop, :].transpose(1, 0, 2).reshape(-1, measures)
        words = cell_words(numbers.ravel()).reshape(len(numbers), -1)
        line = np.hstack([
            words[:, :_CELL_WORDS], np.tile(label_words, (stop - start, 1)), words[:, _CELL_WORDS:],
        ])
        line.view(np.uint8)[:, -1] = ord("\n")
        yield line.tobytes().translate(None, b"\0")
