"""Verification battery: no check may pass on an empty sample."""

import pytest

from qrgflow import DomainError
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
