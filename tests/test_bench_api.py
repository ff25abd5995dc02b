"""The package names and fields that bench/run.py and bench/workloads.py use.

A change that renames or drops one of them breaks the benchmark harness; this
test says so at test time instead.
"""

from dataclasses import fields

import pytest

import qrgflow
from qrgflow import XState, XXZParams, XYParams, flow
from qrgflow.measures import MeasureSet

# bench/workloads.py keeps its own copy of this order (MEASURE_FIELDS)
MEASURE_FIELDS = ("concurrence", "qd_optimal", "qd_sigma_x", "qd_sigma_y", "qd_sigma_z",
                  "mid", "gd", "min_nl", "chsh_max")


def test_params_records_build_and_validate_themselves():
    assert XXZParams(1.0, 0.4).delta == 0.4
    assert XYParams(1.0, qrgflow.gamma_of_g(0.5)).gamma == pytest.approx(-1.0 / 3.0)
    for record in (XXZParams, XYParams):
        assert "__post_init__" in vars(record)  # the tracer wraps it on the class


def test_per_state_functions_exist():
    params = qrgflow.advance(XXZParams(1.0, 0.4))
    assert isinstance(params, XXZParams)
    assert isinstance(qrgflow.reduced_state(params), XState)
    state = qrgflow.reduced_state(XYParams(1.0, 0.3))
    assert qrgflow.brute_force_chsh(state) == pytest.approx(qrgflow.chsh_max(state), abs=1e-9)
    value, _ = qrgflow.brute_force_discord(state)
    assert value == pytest.approx(qrgflow.discord_optimal(state)[0], abs=1e-4)


@pytest.mark.parametrize("params, coupling", [
    (XXZParams(1.0, 0.7), "delta"),
    (XYParams(1.0, -0.3), "gamma"),
])
def test_iterate_steps_carry_what_the_workload_reads(params, coupling):
    assert tuple(f.name for f in fields(MeasureSet)) == MEASURE_FIELDS
    steps = flow.iterate(params, 8).steps
    assert [step.n for step in steps] == list(range(9))
    for step in steps:
        assert step.size == 3 ** (step.n + 1)
        assert isinstance(step.params, type(params))
        assert isinstance(getattr(step.params, coupling), float)
        assert isinstance(step.params.j, float)
        for name in MEASURE_FIELDS:
            assert isinstance(getattr(step.measures, name), float)
