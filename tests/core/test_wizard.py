"""Ordering-wizard facade: dispatch, model-level entry point."""

import pytest

from repro.core import compute_schedule, schedule_model
from repro.core.wizard import ALGORITHMS
from repro.ps import build_reference_partition
from repro.timing import ENV_G, estimate_time_oracle

from ..conftest import tiny_model


@pytest.fixture(scope="module")
def reference():
    return build_reference_partition(tiny_model(), workload="training", n_ps=1)


def test_every_algorithm_dispatches(reference):
    oracle = estimate_time_oracle(reference.graph, ENV_G, seed=0)
    for algorithm in ALGORITHMS:
        schedule = compute_schedule(reference, algorithm, oracle=oracle)
        assert schedule.algorithm == algorithm
        if algorithm != "baseline":
            assert set(schedule.priorities) == set(reference.recv_params)


def test_tac_without_oracle_rejected(reference):
    with pytest.raises(ValueError, match="oracle"):
        compute_schedule(reference, "tac")


def test_unknown_algorithm_rejected(reference):
    with pytest.raises(ValueError, match="unknown algorithm"):
        compute_schedule(reference, "poseidon")


def test_schedule_model_tic_end_to_end():
    schedule = schedule_model("AlexNet v2", "tic", workload="inference")
    assert len(schedule.priorities) == 16
    # conv1 weights must be in the earliest priority group
    first_group = min(schedule.priorities.values())
    assert schedule.priorities["conv1/weights"] == first_group


def test_schedule_model_tac_uses_traced_oracle():
    schedule = schedule_model("AlexNet v2", "tac", workload="inference", platform="envG")
    order = schedule.order()
    assert order[0].startswith("conv1/")
    assert order[-1].startswith("fc8/")


def test_schedule_model_accepts_ir_instance():
    ir = tiny_model()
    schedule = schedule_model(ir, "tic", workload="training")
    assert set(schedule.priorities) == {p.name for p in ir.params}


def test_schedule_model_batch_factor_changes_nothing_structural():
    a = schedule_model("AlexNet v2", "tic", workload="inference", batch_factor=0.5)
    b = schedule_model("AlexNet v2", "tic", workload="inference", batch_factor=2.0)
    assert a.priorities == b.priorities  # TIC is timing-independent
