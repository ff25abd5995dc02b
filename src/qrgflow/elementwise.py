"""Elementwise primitives, on floats or on arrays, for formulas written once.

The X-state checks, the coupling maps, the edge states and every measure are
written once over a few primitives.  ``FLOATS`` evaluates such a formula on
one state with Python's own float arithmetic, so a per-state call pays no array
overhead.  ``ARRAYS`` evaluates it on arrays of one shape, a batch of states,
and rounds every element exactly as ``FLOATS`` rounds the lone value:

* ``square`` is ``x ** 2`` (libm ``pow``) on floats and ``np.float_power(x, 2.0)``
  on arrays; ``x * x`` and ``np.square`` round differently on about 1 input in
  1 000;
* ``hypot`` is ``np.hypot`` (libm) on both; ``math.hypot`` rounds differently;
* ``entropy`` takes ``math.log2`` of each entry on both, since ``np.log2``
  differs from it in the last bit on some inputs, and sums the entries in
  argument order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Elementwise:
    """One set of primitives: for floats, or for arrays of one shape."""

    sqrt: Callable
    hypot: Callable
    square: Callable
    max: Callable  # of two or more arguments
    min: Callable
    where: Callable  # (condition, value if true, value if false)
    all: Callable  # does a condition hold everywhere
    isfinite: Callable
    descending: Callable  # the arguments, largest first, as a list
    entropy: Callable  # bits; entries outside (0, 1) add exactly 0
    rowwise: Callable  # (fn, mask, first, *rest): fn of the rows where mask holds, first elsewhere


def _float_entropy(*ps) -> float:
    total = 0.0
    for x in ps:
        if 0.0 < x < 1.0:  # x log2 x vanishes at 1, and only rounding puts an entry above 1
            total -= x * math.log2(x)
    return total


def _array_entropy(*ps) -> np.ndarray:
    total = 0.0
    for p in np.broadcast_arrays(*ps):
        inside = (p > 0.0) & (p < 1.0)
        x = p[inside]
        term = np.zeros(p.shape)
        term[inside] = x * np.fromiter(map(math.log2, x.tolist()), float, x.size)
        total = total - term
    return total


def _array_rowwise(fn, mask, *columns) -> np.ndarray:
    columns = np.broadcast_arrays(*columns)
    flat = [c.reshape(-1) for c in columns]
    out = flat[0].copy()
    for i in np.flatnonzero(np.broadcast_to(mask, columns[0].shape)):
        out[i] = fn(*(float(c[i]) for c in flat))
    return out.reshape(columns[0].shape)


FLOATS = Elementwise(
    sqrt=math.sqrt,
    hypot=np.hypot,
    square=lambda x: x ** 2,
    max=max,
    min=min,
    where=lambda condition, yes, no: yes if condition else no,
    all=bool,
    isfinite=math.isfinite,
    descending=lambda *xs: sorted(xs, reverse=True),
    entropy=_float_entropy,
    rowwise=lambda fn, mask, first, *rest: fn(first, *rest) if mask else first,
)

ARRAYS = Elementwise(
    sqrt=np.sqrt,
    hypot=np.hypot,
    square=lambda x: np.float_power(x, 2.0),
    max=lambda *xs: reduce(np.maximum, xs),
    min=lambda *xs: reduce(np.minimum, xs),
    where=np.where,
    all=np.all,
    isfinite=np.isfinite,
    descending=lambda *xs: list(np.sort(np.stack(np.broadcast_arrays(*xs)), axis=0)[::-1]),
    entropy=_array_entropy,
    rowwise=_array_rowwise,
)


def ops_of(*values) -> Elementwise:
    """ARRAYS if any value is an array, else FLOATS."""
    for value in values:
        if isinstance(value, np.ndarray):
            return ARRAYS
    return FLOATS
