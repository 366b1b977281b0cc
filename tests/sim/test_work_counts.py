"""How much work a fixed grid costs: builds, compiles, wizard passes.

A sweep group builds its model IR, cluster graph and
:class:`~repro.sim.engine.CompiledCore` once; wizard passes are shared
through the wizard memo; variants that lower equally are simulated once.
These tests run fixed grids serially with no cache and pin each of
those counts, so a refactor of the compile/bind path that quietly does
more (or less) work fails here. They spy on the names the end-to-end
benchmark's span wrappers patch on :mod:`repro.sim.runner`, so they also
guard that the runner looks them up there at call time.
"""

from __future__ import annotations

from repro.backends import (
    GRAPH_MEMO,
    MEMO_COUNTERS,
    REPLICA_MEMO,
    WIZARD_MEMO,
    make_spec,
)
from repro.sim import JobMixSpec, JobSpec, SimConfig
from repro.sim import runner
from repro.sim.jobmix import SHAPE_CORE_MEMO
from repro.sweep import SimCell, SweepRunner

MODELS = ("AlexNet v2", "Inception v1")
SPECS = (
    make_spec("ps", n_workers=2, n_ps=1),
    make_spec("ps", n_workers=4, n_ps=1),
    make_spec("allreduce", n_workers=2),
)
ALGORITHMS = ("baseline", "tic", "tac", "layerwise")
CFG = SimConfig(iterations=2, warmup=1)

#: three mixes over two job shapes: two AlexNet PS jobs on shared
#: hosts, AlexNet PS beside Inception all-reduce, and a solo AlexNet.
PAIR = JobMixSpec(
    jobs=(
        JobSpec("AlexNet v2", algorithm="tic"),
        JobSpec("AlexNet v2", algorithm="tac", arrival=1.0),
    ),
    placement="packed",
    n_hosts=3,
)
MIXES = (
    PAIR,
    JobMixSpec(
        jobs=(
            JobSpec("AlexNet v2", algorithm="tac"),
            JobSpec("Inception v1", backend="allreduce", algorithm="tic"),
        ),
        placement="spread",
    ),
    PAIR.solo(0),
)
MIX_ALGORITHMS = ("baseline", "mix", "tac")
MEMOS = (GRAPH_MEMO, WIZARD_MEMO, SHAPE_CORE_MEMO, REPLICA_MEMO)


def _counting(monkeypatch, name: str, calls: dict) -> None:
    original = getattr(runner, name)

    def spy(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(runner, name, spy)


def _run_counted(monkeypatch, cells) -> tuple[dict, dict]:
    """Run ``cells`` serially, uncached, on empty memos; returns the
    runner-level call counts and the memo counter deltas."""
    for memo in MEMOS:
        memo.clear()
    calls = dict.fromkeys(
        ("build_model", "build_comm_graph", "CompiledCore", "summarize_iteration"), 0
    )
    for name in calls:
        _counting(monkeypatch, name, calls)
    assert callable(runner.prepare_schedule)  # the fifth wrapped name
    before = dict(MEMO_COUNTERS)
    with SweepRunner(jobs=1, cache_dir=None) as sweep:
        results = sweep.run_cells(cells)
    assert len(results) == len(cells)
    for memo in MEMOS:
        memo.clear()
    return calls, {k: v - before[k] for k, v in MEMO_COUNTERS.items()}


def test_fixed_grid_work_counts(monkeypatch):
    cells = [
        SimCell(model=m, spec=s, algorithm=a, platform="envC", config=CFG)
        for m in MODELS
        for s in SPECS
        for a in ALGORITHMS
    ]
    assert len(cells) == 24
    calls, memo = _run_counted(monkeypatch, cells)
    assert calls["build_model"] == 6
    assert calls["build_comm_graph"] == 6
    assert (memo["graph_memo_misses"], memo["graph_memo_hits"]) == (6, 0)
    # one worker replica per (model, backend): the two PS worker counts
    # place the same replica (one shard, so one placement)
    assert (memo["replica_memo_misses"], memo["replica_memo_hits"]) == (4, 2)
    assert calls["CompiledCore"] == 6
    # one pass per (model, algorithm): the all-reduce reference is the
    # PS training reference with one shard, so it shares the PS pass
    assert memo["wizard_memo_misses"] == 6
    assert memo["wizard_memo_hits"] == 12
    assert memo["variant_memo_hits"] == 8
    assert calls["summarize_iteration"] == 32


def test_fixed_jobmix_grid_work_counts(monkeypatch):
    cells = [
        SimCell(model=mix.jobs[0].model, spec=mix, algorithm=a, platform="envC",
                config=CFG)
        for mix in MIXES
        for a in MIX_ALGORITHMS
    ]
    assert len(cells) == 9
    calls, memo = _run_counted(monkeypatch, cells)
    # one group per mix: one mix graph and one composed core each
    assert calls["build_model"] == 3
    assert calls["build_comm_graph"] == 3
    assert calls["CompiledCore"] == 3
    # two job shapes (AlexNet PS, Inception all-reduce) build and compile
    # once; the other three jobs reuse them. No mix is memoized whole.
    assert (memo["graph_memo_misses"], memo["graph_memo_hits"]) == (2, 2)
    # each job shape's graph build emits its worker replica once
    assert (memo["replica_memo_misses"], memo["replica_memo_hits"]) == (2, 0)
    assert (memo["shape_core_memo_misses"], memo["shape_core_memo_hits"]) == (2, 3)
    # one pass per (model, reference, algorithm): AlexNet tic and tac,
    # Inception tic and tac; later mixes reuse them
    assert (memo["wizard_memo_misses"], memo["wizard_memo_hits"]) == (4, 5)
    assert memo["variant_memo_hits"] == 3
    assert calls["summarize_iteration"] == 12
