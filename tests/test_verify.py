"""Verification battery: no check may pass on an empty sample."""

import pytest

from qrgflow import DomainError, verify
from qrgflow.verify import (
    check_bell_bound,
    check_bloch_round_trip,
    check_chsh_oracle,
    check_discord_oracle,
    check_ground_blocks,
    check_jacobi_reconstruction,
    check_measure_battery,
    check_mid_identity,
    check_spectrum_oracle,
)

CHECKS = [
    (check_bloch_round_trip, "states"),
    (check_spectrum_oracle, "states"),
    (check_jacobi_reconstruction, "matrices"),
    (check_mid_identity, "states"),
    (check_measure_battery, "states"),
    (check_ground_blocks, "params_per_model"),
    (check_bell_bound, "points"),
    (check_chsh_oracle, "states"),
    (check_discord_oracle, "states"),
]


@pytest.mark.parametrize("count", [0, -2])
@pytest.mark.parametrize("check, arg", CHECKS, ids=[check.__name__ for check, _ in CHECKS])
def test_check_rejects_empty_sample(check, arg, count):
    with pytest.raises(DomainError, match=f"{arg}={count}"):
        check(**{arg: count})


# Per-item functions as verify binds them.  Each check must call its function
# once per state or matrix it examines, never once for a stacked batch: the
# oracle-battery benchmark reads what a check examined from these calls.
ITEM_FUNCS = ("diag_symmetric", "brute_force_chsh", "brute_force_discord", "spectrum",
              "partial_trace_mid", "to_bloch", "mid", "measure_all")
CALLS = [
    (check_bloch_round_trip, {"states": 7}, {"to_bloch": 7}),
    (check_spectrum_oracle, {"states": 5}, {"spectrum": 5, "diag_symmetric": 5}),
    (check_jacobi_reconstruction, {"matrices": 6}, {"diag_symmetric": 6}),
    (check_mid_identity, {"states": 9}, {"mid": 9}),
    (check_measure_battery, {"states": 8}, {"measure_all": 8}),
    (check_ground_blocks, {"params_per_model": 3},
     {"diag_symmetric": 2 * 3, "partial_trace_mid": 2 * 2 * 3}),
    (check_bell_bound, {"points": 4}, {"sweep_cells": 2 * 4 * 7}),
    (check_chsh_oracle, {"states": 5}, {"brute_force_chsh": 5}),
    (check_discord_oracle, {"states": 3}, {"brute_force_discord": 3}),
]


@pytest.mark.parametrize("check, kwargs, expected", CALLS,
                         ids=[check.__name__ for check, _, _ in CALLS])
def test_check_calls_once_per_item(monkeypatch, check, kwargs, expected):
    counts = dict.fromkeys(ITEM_FUNCS + ("sweep_cells",), 0)

    def counting(name, fn):
        def wrapper(*args, **kw):
            counts[name] += 1
            return fn(*args, **kw)
        return wrapper

    sweep = verify.sweep

    def counting_sweep(*args, **kw):
        table = sweep(*args, **kw)
        counts["sweep_cells"] += table.values.shape[0] * table.values.shape[1]
        return table

    for name in ITEM_FUNCS:
        monkeypatch.setattr(verify, name, counting(name, getattr(verify, name)))
    monkeypatch.setattr(verify, "sweep", counting_sweep)
    assert check(**kwargs).ok
    assert counts == {name: expected.get(name, 0) for name in counts}
