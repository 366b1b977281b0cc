"""Tracing is observational: bit-identity and cross-driver parity.

The trace subsystem's one hard invariant is that turning it on changes
*nothing* — no RNG draw, no event reorder, no float — and that the event
loop records the *same* streams however it is driven. Pinned three ways:

* traced vs untraced records are bit-identical (start/end/dedicated/
  makespan/out-of-order) on every golden case;
* the committed golden matrix replays byte-identically with tracing ON
  (tracing can never change ENGINE_REV semantics);
* an iteration run alone (``run_iteration``) and the same iteration
  run inside a slabbed ``run_iterations`` batch record identical event
  streams, on every golden case and on a co-scheduled job mix.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim import CompiledCore, SimConfig, SimVariant
from repro.timing import PLATFORMS

from ..sim.test_engine_golden import (
    _GOLDEN,
    FLAT,
    build_cluster,
    layerwise,
    make_config,
    run_case,
)

CASES = [c["case"] for c in _GOLDEN["cases"]]
IDS = [c["name"] for c in CASES]

#: event loops the traced == untraced check runs under (the python loop
#: is the only one).
LOOPS = ["python"]


def _variant(case: dict, **overrides) -> SimVariant:
    ir, cluster = build_cluster(case["backend"])
    platform = FLAT if case["platform"] == "flat" else PLATFORMS[case["platform"]]
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
# traced == untraced
# ----------------------------------------------------------------------
@pytest.mark.parametrize("loop", LOOPS)
@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_tracing_never_changes_results(case, loop):
    plain = _variant(case).run_iteration(0)
    traced = _variant(case, trace=True).run_iteration(0)
    assert plain.trace is None
    assert traced.trace is not None
    assert _records_identical(plain, traced)


@pytest.mark.parametrize("case", CASES[:4], ids=IDS[:4])
def test_golden_matrix_replays_traced(case):
    """The golden digests hold with tracing forced on — strongest form
    of 'tracing is observational only'."""
    golden = next(c for c in _GOLDEN["cases"] if c["case"]["name"] == case["name"])
    traced_case = dict(case, config=dict(case["config"], trace=True))
    assert run_case(traced_case)["iterations"] == golden["iterations"]


# ----------------------------------------------------------------------
# one iteration alone vs inside a batch: identical event streams
# ----------------------------------------------------------------------
@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_kernels_record_identical_streams(case):
    """Each iteration of a two-iteration ``run_iterations`` batch (the
    slabbed jitter path the sweep lane drives) records the same stream
    as that iteration run alone."""
    sim = _variant(case, trace=True)
    for i, batched in enumerate(sim.run_iterations(0, 2)):
        alone = sim.run_iteration(i)
        assert alone.trace.same_stream(batched.trace)
        assert alone.trace.n_chunk_events == batched.trace.n_chunk_events > 0


def test_jobmix_cell_streams_agree_across_kernels():
    """A co-scheduled 2-job mix (shared-NIC packed placement) traces
    identically through ``trace_cell`` (one iteration alone) and through
    a batched run of the same cell bound through the runner's seam, and
    the joined Trace carries the job tags."""
    from repro.api.jobmix_scenarios import CONTENTION_MIX
    from repro.obs.capture import trace_cell
    from repro.obs.trace import Trace
    from repro.sim.runner import bind_variant, compile_group

    cell = CONTENTION_MIX.cells(SimConfig(iterations=2, warmup=1))[1]
    alone = trace_cell(cell)

    cfg = cell.config.with_(trace=True)
    assert cell.algorithm == "baseline"
    ir, core = compile_group(
        cell.model, cell.spec, platform=cell.platform, batch_factor=cell.batch_factor
    )
    sim = bind_variant(ir, cell.spec, core, cell.algorithm, cfg)
    batched = sim.run_iterations(0, cfg.warmup + cfg.iterations)[alone.iteration]
    trace = Trace.from_record(sim, batched)

    assert alone.trace.ready.tolist() == trace.ready.tolist()
    assert alone.trace.depth.tolist() == trace.depth.tolist()
    assert alone.trace.chunk_start.tolist() == trace.chunk_start.tolist()
    assert alone.trace.jobs == ("j0", "j1")
    assert set(np.unique(alone.trace.job)) == {0, 1}


#: TAC cells (AlexNet v2, envC, 2 workers) and the makespan of their
#: first recorded iteration.
WIZARD_CELLS = {
    "ps": (("ps", {"n_workers": 2, "n_ps": 1}), 14.188319040714811),
    "allreduce": (("allreduce", {"n_workers": 2}), 14.550929735957148),
}


@pytest.mark.parametrize("backend", sorted(WIZARD_CELLS))
def test_traced_wizard_cell_matches_the_sweep(backend):
    """``trace_cell`` binds a wizard-scheduled cell exactly as the sweep
    does: its traced iteration has the sweep's recorded makespan."""
    from repro.backends import make_spec
    from repro.obs.capture import trace_cell
    from repro.sweep import SimCell, SweepRunner

    (name, kwargs), makespan = WIZARD_CELLS[backend]
    cell = SimCell(
        model="AlexNet v2", spec=make_spec(name, **kwargs), algorithm="tac",
        platform="envC", config=SimConfig(iterations=2, warmup=1),
    )
    with SweepRunner(jobs=1, cache_dir=None) as sweep:
        swept = sweep.run_cells([cell])[0].iterations[0].makespan
    traced = trace_cell(cell).trace.makespan
    assert swept == traced == makespan


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
    n = variant.core.n
    assert ev.ready.shape == ev.depth.shape == (n,)
    # every op was released and dispatched exactly once
    assert not np.isnan(ev.ready).any()
    assert (ev.depth >= 1).all()
    # queue-enter never after dispatch
    assert (ev.ready <= record.start + 1e-12).all()
    # chunk events tile each transfer's wire occupancy
    assert ev.n_chunk_events >= int(variant.core.is_transfer.sum())
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
