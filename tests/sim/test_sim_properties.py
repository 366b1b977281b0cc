"""Property-based simulator invariants under random schedules/configs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Schedule
from repro.ps import ClusterSpec, build_cluster_graph
from repro.sim import CompiledCore, SimConfig, SimVariant

from ..conftest import examples, tiny_model
from .test_engine import FLAT

_CLUSTER = build_cluster_graph(tiny_model(), ClusterSpec(2, 1, "training"))
_PARAMS = [p.name for p in _CLUSTER.model.params]


@st.composite
def schedules(draw):
    n = len(_PARAMS)
    perm = draw(st.permutations(range(n)))
    subset = draw(st.integers(min_value=0, max_value=n))
    return Schedule("hypo", {p: perm[i] for i, p in enumerate(_PARAMS[:subset])})


@given(
    schedules(),
    st.sampled_from(["sender", "ready_queue", "dag", "none"]),
    st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=examples(40), deadline=None)
def test_invariants_hold_for_any_schedule_and_mode(schedule, mode, seed):
    config = SimConfig(iterations=1, enforcement=mode, seed=seed,
                       grpc_reorder_prob=0.0)
    sim = SimVariant(CompiledCore(_CLUSTER, FLAT), schedule, config)
    record = sim.run_iteration(0)
    g = _CLUSTER.graph
    # every op ran, no op before its dependencies
    assert not np.isnan(record.end).any()
    for op in g:
        for p in g.pred_ids(op.op_id):
            assert record.end[p] <= record.start[op.op_id] + 1e-12
    # makespan within the Eq. 1 / Eq. 2 band
    loads = sim.resource_loads(record)
    assert max(loads.values()) - 1e-9 <= record.makespan <= record.dedicated.sum() + 1e-9


@given(st.floats(min_value=0.0, max_value=0.2), st.integers(0, 1000))
@settings(max_examples=examples(20), deadline=None)
def test_jitter_never_breaks_completion(sigma, seed):
    config = SimConfig(iterations=1, seed=seed)
    sim = SimVariant(CompiledCore(_CLUSTER, FLAT.scaled(jitter_sigma=sigma)), None, config)
    record = sim.run_iteration(seed)
    assert not np.isnan(record.end).any()
    assert record.makespan > 0
