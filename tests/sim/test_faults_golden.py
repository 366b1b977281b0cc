"""Fault-injection golden matrix + invariants (ISSUE 9).

``golden_faults.json`` pins per-iteration makespans and SHA-256 digests
of the raw start/end/dedicated arrays for a matrix of fault plans — one
per event type plus overlap/composition edges — and every case must
replay bit-identically to the committed record. The hypothesis suites
pin the two structural invariants of the fault layer:

* an **empty or zero-magnitude** plan is byte-for-byte identical to no
  plan at all (the gating byte-identity contract);
* **host-failure recovery never loses or duplicates chunk bytes**: the
  traced chunk stream of a faulted run carries exactly the same chunk
  events per op as the fault-free run (each retransmitted chunk still
  completes exactly once), and every op still completes.

Regenerate the golden file ONLY for an intentional semantic change::

    PYTHONPATH=src python benchmarks/make_faults_golden.py
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import (
    FaultPlan,
    HostFailure,
    LinkDegradation,
    NicFlap,
    StragglerBurst,
)
from repro.sim import CompiledCore, SimConfig, SimVariant

from .test_engine_golden import FLAT, build_cluster, layerwise

from ..conftest import examples

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_faults.json")

ITERATIONS = 2

#: the tiny PS cluster (2 workers, 1 PS) these plans are written against.
FAULT_PLANS = {
    "link": FaultPlan((
        LinkDegradation("ps:0", "worker:0", start=0.0, duration=0.05, factor=0.25),
    )),
    "link-outage": FaultPlan((
        LinkDegradation("ps:0", "worker:1", start=0.01, duration=0.02, factor=0.0),
    )),
    "nic-flap": FaultPlan((
        NicFlap("worker:1", start=0.005, duration=0.03, factor=0.1),
    )),
    "straggler": FaultPlan((
        StragglerBurst("worker:0", start=0.0, duration=0.08, factor=2.5),
    )),
    "host-failure-ps": FaultPlan((
        HostFailure("ps:0", start=0.02, recovery=0.05),
    )),
    "host-failure-worker": FaultPlan((
        HostFailure("worker:1", start=0.01, recovery=0.03),
    )),
    # overlapping windows on one link compose multiplicatively
    "overlap": FaultPlan((
        LinkDegradation("ps:0", "worker:0", start=0.0, duration=0.06, factor=0.5),
        LinkDegradation("ps:0", "worker:0", start=0.03, duration=0.06, factor=0.5),
    )),
    # every event type at once
    "combo": FaultPlan((
        LinkDegradation("ps:0", "worker:0", start=0.0, duration=0.04, factor=0.3),
        NicFlap("worker:1", start=0.02, duration=0.03, factor=0.5),
        StragglerBurst("worker:0", start=0.01, duration=0.05, factor=3.0),
        HostFailure("ps:0", start=0.06, recovery=0.02),
    )),
}


def case_matrix() -> list[dict]:
    """Every golden fault case: each plan under the sender mode, plus
    jitter/ready-queue/baseline edges on the busiest plan."""
    cases = [
        {
            "name": plan_name,
            "plan": plan_name,
            "schedule": "layerwise",
            "config": {"enforcement": "sender", "iterations": 1, "seed": 7},
        }
        for plan_name in FAULT_PLANS
    ]
    cases += [
        {"name": "combo-jitter", "plan": "combo", "schedule": "layerwise",
         "config": {"enforcement": "sender", "jitter_sigma": 0.05,
                    "iterations": 1, "seed": 3}},
        {"name": "combo-ready-queue", "plan": "combo", "schedule": "layerwise",
         "config": {"enforcement": "ready_queue", "iterations": 1, "seed": 5}},
        {"name": "combo-baseline", "plan": "combo", "schedule": "baseline",
         "config": {"enforcement": "sender", "iterations": 1, "seed": 0}},
    ]
    return cases


def _digest(record) -> str:
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(record.start).tobytes())
    digest.update(np.ascontiguousarray(record.end).tobytes())
    digest.update(np.ascontiguousarray(record.dedicated).tobytes())
    return digest.hexdigest()


def run_case(case: dict) -> dict:
    """Simulate one fault case and fingerprint its records."""
    ir, cluster = build_cluster("ps")
    schedule = None if case["schedule"] == "baseline" else layerwise(ir)
    cfg = SimConfig(faults=FAULT_PLANS[case["plan"]], **case["config"])
    sim = SimVariant(CompiledCore(cluster, FLAT), schedule, cfg)
    iterations = [
        {
            "makespan": (record := sim.run_iteration(i)).makespan,
            "out_of_order": record.out_of_order_handoffs,
            "arrays_sha256": _digest(record),
        }
        for i in range(ITERATIONS)
    ]
    return {"case": case, "iterations": iterations}


def _golden():
    if not os.path.exists(GOLDEN_PATH):  # regeneration bootstrap
        return {"iterations_per_case": ITERATIONS, "cases": []}
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


_GOLDEN = _golden()


@pytest.mark.parametrize(
    "case_rec", _GOLDEN["cases"], ids=[c["case"]["name"] for c in _GOLDEN["cases"]]
)
def test_faulted_engine_matches_golden_record(case_rec):
    """Faulted makespans and per-op arrays are bit-identical to the
    committed record."""
    got = run_case(case_rec["case"])
    assert got["iterations"] == case_rec["iterations"]


def test_fault_golden_matrix_is_current():
    assert [c["case"] for c in _GOLDEN["cases"]] == case_matrix()
    assert _GOLDEN["iterations_per_case"] == ITERATIONS


# ----------------------------------------------------------------------
# invariants
# ----------------------------------------------------------------------
def _records_equal(a, b) -> bool:
    return (
        a.makespan == b.makespan
        and a.out_of_order_handoffs == b.out_of_order_handoffs
        and np.array_equal(a.start, b.start)
        and np.array_equal(a.end, b.end)
        and np.array_equal(a.dedicated, b.dedicated)
    )


_noop_events = st.one_of(
    st.builds(
        LinkDegradation,
        src=st.just("ps:0"),
        dst=st.sampled_from(["worker:0", "worker:1"]),
        start=st.floats(0.0, 0.1, allow_nan=False),
        duration=st.floats(0.001, 0.1, allow_nan=False, exclude_min=True),
        factor=st.just(1.0),
    ),
    st.builds(
        NicFlap,
        device=st.sampled_from(["ps:0", "worker:0", "worker:1"]),
        start=st.floats(0.0, 0.1, allow_nan=False),
        duration=st.floats(0.001, 0.1, allow_nan=False, exclude_min=True),
        factor=st.just(1.0),
    ),
    st.builds(
        StragglerBurst,
        device=st.sampled_from(["ps:0", "worker:0", "worker:1"]),
        start=st.floats(0.0, 0.1, allow_nan=False),
        duration=st.floats(0.001, 0.1, allow_nan=False, exclude_min=True),
        factor=st.just(1.0),
    ),
)


@given(
    st.lists(_noop_events, max_size=4),
    st.integers(min_value=0, max_value=20),
)
@settings(max_examples=examples(15), deadline=None)
def test_zero_magnitude_plan_is_byte_identical(events, seed):
    """Empty plans and plans whose windows retain 100% of capacity
    compile to nothing and reproduce the fault-free run byte-for-byte."""
    ir, cluster = build_cluster("ps")
    core = CompiledCore(cluster, FLAT)
    schedule = layerwise(ir)
    cfg = SimConfig(iterations=1, seed=seed)
    ref = SimVariant(core, schedule, cfg).run_iteration(0)
    noop = SimVariant(
        core, schedule, cfg.with_(faults=FaultPlan(tuple(events)))
    ).run_iteration(0)
    assert _records_equal(ref, noop)


_outage_events = st.one_of(
    st.builds(
        HostFailure,
        device=st.sampled_from(["ps:0", "worker:0", "worker:1"]),
        start=st.floats(0.0, 0.2, allow_nan=False),
        recovery=st.floats(0.005, 0.1, allow_nan=False, exclude_min=True),
    ),
    st.builds(
        LinkDegradation,
        src=st.just("ps:0"),
        dst=st.sampled_from(["worker:0", "worker:1"]),
        start=st.floats(0.0, 0.2, allow_nan=False),
        duration=st.floats(0.005, 0.1, allow_nan=False, exclude_min=True),
        factor=st.just(0.0),
    ),
)


@given(st.lists(_outage_events, min_size=1, max_size=3), st.integers(0, 10))
@settings(max_examples=examples(15), deadline=None)
def test_recovery_conserves_chunk_bytes(events, seed):
    """Outage retransmission neither loses nor duplicates chunks: the
    faulted run emits exactly the same chunk events per op as the
    fault-free run (a lost chunk retransmits from scratch but still
    completes exactly once), and every op still finishes."""
    ir, cluster = build_cluster("ps")
    core = CompiledCore(cluster, FLAT)
    schedule = layerwise(ir)
    cfg = SimConfig(iterations=1, seed=seed, trace=True)
    ref = SimVariant(core, schedule, cfg).run_iteration(0)
    faulted = SimVariant(
        core, schedule, cfg.with_(faults=FaultPlan(tuple(events)))
    ).run_iteration(0)
    ref_counts = np.bincount(ref.trace.chunk_op, minlength=core.n)
    fault_counts = np.bincount(faulted.trace.chunk_op, minlength=core.n)
    assert np.array_equal(ref_counts, fault_counts)
    assert np.isfinite(faulted.makespan) and faulted.makespan > 0
    # every op that completed fault-free still completes under faults
    assert np.array_equal(np.isnan(ref.end), np.isnan(faulted.end))
