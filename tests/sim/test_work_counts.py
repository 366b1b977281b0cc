"""How much work a fixed grid costs: builds, compiles, wizard passes.

A sweep group builds its model IR, cluster graph and
:class:`~repro.sim.engine.CompiledCore` once; wizard passes are shared
through the wizard memo; variants that lower equally are simulated once.
This test runs one fixed grid serially with no cache and pins each of
those counts, so a refactor of the compile/bind path that quietly does
more (or less) work fails here. It spies on the names the end-to-end
benchmark's span wrappers patch on :mod:`repro.sim.runner`, so it also
guards that the runner looks them up there at call time.
"""

from __future__ import annotations

from repro import backends
from repro.backends import make_spec, memo_stats
from repro.sim import SimConfig
from repro.sim import runner
from repro.sim.runner import variant_memo_stats
from repro.sweep import SimCell, SweepRunner

MODELS = ("AlexNet v2", "Inception v1")
SPECS = (
    make_spec("ps", n_workers=2, n_ps=1),
    make_spec("ps", n_workers=4, n_ps=1),
    make_spec("allreduce", n_workers=2),
)
ALGORITHMS = ("baseline", "tic", "tac", "layerwise")
CFG = SimConfig(iterations=2, warmup=1)


def _counting(monkeypatch, name: str, calls: dict) -> None:
    original = getattr(runner, name)

    def spy(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(runner, name, spy)


def test_fixed_grid_work_counts(monkeypatch):
    backends.clear_graph_memo()
    backends.clear_schedule_memo()
    calls = dict.fromkeys(
        ("build_model", "build_comm_graph", "CompiledCore", "summarize_iteration"), 0
    )
    for name in calls:
        _counting(monkeypatch, name, calls)
    assert callable(runner.prepare_schedule)  # the fifth wrapped name
    memo0, variant0 = memo_stats(), variant_memo_stats()

    cells = [
        SimCell(model=m, spec=s, algorithm=a, platform="envC", config=CFG)
        for m in MODELS
        for s in SPECS
        for a in ALGORITHMS
    ]
    with SweepRunner(jobs=1, cache_dir=None) as sweep:
        results = sweep.run_cells(cells)
    assert len(results) == len(cells) == 24

    memo = {k: v - memo0[k] for k, v in memo_stats().items()}
    variant_hits = (
        variant_memo_stats()["variant_memo_hits"] - variant0["variant_memo_hits"]
    )
    assert calls["build_model"] == 6
    assert calls["build_comm_graph"] == 6
    assert (memo["graph_memo_misses"], memo["graph_memo_hits"]) == (6, 0)
    assert calls["CompiledCore"] == 6
    assert memo["wizard_memo_misses"] == 12
    assert memo["wizard_memo_hits"] == 6
    assert variant_hits == 8
    assert calls["summarize_iteration"] == 32
    backends.clear_graph_memo()
    backends.clear_schedule_memo()
