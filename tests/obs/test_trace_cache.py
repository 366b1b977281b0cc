"""Tracing vs the sweep cache: one keyspace, zero poisoning.

``SimConfig.trace`` is excluded from cell cache keys: a traced run
computes the exact numbers an untraced one would, so the two must share
entries — a traced sweep never misses a warm cache, and a traced run's
entry serves untraced callers with identical results.
"""

from __future__ import annotations

import pytest

from repro.ps import ClusterSpec
from repro.sim import SimConfig
from repro.sweep import SimCell, SweepRunner

SPEC = ClusterSpec(2, 1, "training")


def _cell(**cfg) -> SimCell:
    return SimCell(
        model="AlexNet v2",
        spec=SPEC,
        algorithm="baseline",
        config=SimConfig(iterations=2, warmup=1, **cfg),
    )


def test_trace_flag_does_not_change_cache_key():
    keys = {
        _cell(trace=t).cache_key_material() for t in (False, True)
    }
    assert len(keys) == 1
    # ...but a genuinely different config still gets its own key
    assert _cell(seed=1).cache_key_material() not in keys


def test_traced_run_hits_untraced_cache_and_vice_versa(tmp_path):
    with SweepRunner(cache_dir=str(tmp_path)) as runner:
        cold = runner.run_cells([_cell()])[0]
        assert runner.stats.as_dict() == {"hits": 0, "misses": 1, "writes": 1}
        warm = runner.run_cells([_cell(trace=True)])[0]
        assert runner.stats.hits == 1 and runner.stats.writes == 1
        assert [s.makespan for s in warm.iterations] == [
            s.makespan for s in cold.iterations
        ]
    # fresh runner, traced first: the entry it writes serves untraced
    with SweepRunner(cache_dir=str(tmp_path / "b")) as runner:
        traced = runner.run_cells([_cell(trace=True)])[0]
        again = runner.run_cells([_cell()])[0]
        assert runner.stats.as_dict() == {"hits": 1, "misses": 1, "writes": 1}
        assert [s.makespan for s in again.iterations] == [
            s.makespan for s in traced.iterations
        ]
        assert [s.makespan for s in traced.iterations] == [
            s.makespan for s in cold.iterations
        ]
