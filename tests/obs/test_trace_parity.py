"""Tracing is observational: bit-identity and cross-kernel parity.

The trace subsystem's one hard invariant is that turning it on changes
*nothing* — no RNG draw, no event reorder, no float — and that both
event-loop kernels record the *same* streams. Pinned three ways:

* traced vs untraced records are bit-identical (start/end/dedicated/
  makespan/out-of-order), per kernel;
* the committed golden matrix replays byte-identically with tracing ON
  (tracing can never change ENGINE_REV semantics);
* python-loop and array-kernel event streams are identical on every
  golden case and on a co-scheduled job mix.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim import CompiledCore, SimConfig, SimVariant
from repro.timing import get_platform

from ..sim.test_engine_golden import (
    _GOLDEN,
    FLAT,
    build_cluster,
    layerwise,
    make_config,
)
from ..sim.test_kernel_parity import run_golden_case

CASES = [c["case"] for c in _GOLDEN["cases"]]
IDS = [c["name"] for c in CASES]


def _variant(case: dict, **overrides) -> SimVariant:
    ir, cluster = build_cluster(case["backend"])
    platform = FLAT if case["platform"] == "flat" else get_platform(case["platform"])
    schedule = None if case["schedule"] == "baseline" else layerwise(ir)
    cfg = make_config(case["config"]).with_(**overrides)
    return SimVariant(CompiledCore(cluster, platform), schedule, cfg)


def _records_identical(a, b) -> bool:
    return (
        a.makespan == b.makespan
        and a.out_of_order_handoffs == b.out_of_order_handoffs
        and np.array_equal(a.start, b.start)
        and np.array_equal(a.end, b.end)
        and np.array_equal(a.dedicated, b.dedicated)
    )


# ----------------------------------------------------------------------
# traced == untraced, per kernel
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kern", ["python", "portable"])
@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_tracing_never_changes_results(case, kern):
    plain = _variant(case, kernel=kern).run_iteration(0)
    traced = _variant(case, kernel=kern, trace=True).run_iteration(0)
    assert plain.trace is None
    assert traced.trace is not None
    assert _records_identical(plain, traced)


@pytest.mark.parametrize("case", CASES[:4], ids=IDS[:4])
def test_golden_matrix_replays_traced(case):
    """The golden digests hold with tracing forced on — strongest form
    of 'tracing is observational only'."""
    golden = next(c for c in _GOLDEN["cases"] if c["case"]["name"] == case["name"])
    traced_case = dict(case, config=dict(case["config"], trace=True))
    assert run_golden_case(traced_case, "portable") == golden["iterations"]


# ----------------------------------------------------------------------
# python vs portable event streams
# ----------------------------------------------------------------------
@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_kernels_record_identical_streams(case):
    py = _variant(case, kernel="python", trace=True).run_iteration(0)
    arr = _variant(case, kernel="portable", trace=True).run_iteration(0)
    assert py.trace.same_stream(arr.trace)
    assert py.trace.n_chunk_events == arr.trace.n_chunk_events > 0


def test_jobmix_cell_streams_agree_across_kernels():
    """A co-scheduled 2-job mix (shared-NIC packed placement) traces
    identically under both kernels, and the joined Trace carries the
    job tags."""
    from repro.obs.capture import trace_cell
    from repro.api.jobmix_scenarios import CONTENTION_MIX

    cell = CONTENTION_MIX.cells(SimConfig(iterations=2, warmup=1))[1]
    py = trace_cell(cell, kernel="python")
    arr = trace_cell(cell, kernel="portable")
    assert py.trace.ready.tolist() == arr.trace.ready.tolist()
    assert py.trace.depth.tolist() == arr.trace.depth.tolist()
    assert py.trace.chunk_start.tolist() == arr.trace.chunk_start.tolist()
    assert py.trace.jobs == ("j0", "j1")
    assert set(np.unique(py.trace.job)) == {0, 1}


# ----------------------------------------------------------------------
# event-stream semantics
# ----------------------------------------------------------------------
def test_stream_shapes_and_semantics():
    case = dict(
        name="ps", backend="ps", platform="flat", schedule="layerwise",
        config={"enforcement": "sender", "iterations": 1, "seed": 7},
    )
    variant = _variant(case, trace=True)
    record = variant.run_iteration(0)
    ev = record.trace
    n = variant.n
    assert ev.ready.shape == ev.depth.shape == (n,)
    # every op was released and dispatched exactly once
    assert not np.isnan(ev.ready).any()
    assert (ev.depth >= 1).all()
    # queue-enter never after dispatch
    assert (ev.ready <= record.start + 1e-12).all()
    # chunk events tile each transfer's wire occupancy
    assert ev.n_chunk_events >= int(variant.is_transfer.sum())
    assert (ev.chunk_dur > 0).all()


def test_ooo_recount_matches_engine_audit():
    """Trace.scheduler_diagnostics re-derives the engine's out-of-order
    audit from the traced wire order — totals must agree exactly."""
    from repro.obs.trace import Trace

    for case in CASES[:6]:
        variant = _variant(case, trace=True)
        record = variant.run_iteration(0)
        trace = Trace.from_record(variant, record)
        diag = trace.scheduler_diagnostics()
        assert diag["total_inversions"] == record.out_of_order_handoffs
