"""Telemetry: the counter bag, the sweep integration, the API surface."""

from __future__ import annotations

import pytest

from repro.api import Context, Scale, registry
from repro.api.engine import execute_scenario
from repro.obs.telemetry import Telemetry, memo_counters, merge_rows
from repro.ps import ClusterSpec
from repro.sim import SimConfig
from repro.sweep import SimCell, SweepRunner

MICRO = Scale(
    name="micro",
    models=("AlexNet v2",),
    worker_counts=(2,),
    ps_counts=(1,),
    iterations=2,
    warmup=0,
    consistency_runs=8,
    loss_iterations=10,
)


# ----------------------------------------------------------------------
# the counter bag itself
# ----------------------------------------------------------------------
def test_add_peak_get():
    t = Telemetry()
    assert not t
    t.add("cells")
    t.add("cells", 2)
    t.peak("cell_wall_max_s", 0.5)
    t.peak("cell_wall_max_s", 0.2)  # smaller: ignored
    assert t
    assert t.get("cells") == 3.0
    assert t.get("cell_wall_max_s") == 0.5
    assert t.get("absent") == 0.0


def test_timer_accumulates():
    t = Telemetry()
    with t.timer("wall_s"):
        pass
    with t.timer("wall_s"):
        pass
    assert t.get("wall_s") > 0.0


def test_merge_and_rows_round_trip():
    a = Telemetry({"x": 1.0, "y": 2.0})
    b = Telemetry({"y": 3.0, "z": 4.0})
    a.merge(b)
    assert a.as_dict() == {"x": 1.0, "y": 5.0, "z": 4.0}
    assert merge_rows(a.rows() + b.rows()) == {
        "x": 1.0, "y": 8.0, "z": 8.0,
    }


def test_delta_since_sums_vs_peaks():
    t = Telemetry({"cells": 2.0, "cell_wall_max_s": 0.3})
    before = t.as_dict()
    t.add("cells", 3)
    t.add("new", 1)
    t.peak("cell_wall_max_s", 0.9)
    delta = t.delta_since(before)
    # sums report the increment, peaks the current value, zeros vanish
    assert delta == {"cells": 3.0, "cell_wall_max_s": 0.9, "new": 1.0}
    assert t.delta_since(t.as_dict()) == {}


def test_memo_counters_shape():
    counters = memo_counters()
    assert set(counters) == {
        "graph_memo_hits", "graph_memo_misses",
        "wizard_memo_hits", "wizard_memo_misses",
        "shape_core_memo_hits", "shape_core_memo_misses",
        "replica_memo_hits", "replica_memo_misses",
        "variant_memo_hits",
    }
    assert all(isinstance(v, float) for v in counters.values())


# ----------------------------------------------------------------------
# sweep-runner integration
# ----------------------------------------------------------------------
def test_run_cells_populates_counters(tmp_path):
    cells = [
        SimCell(
            model="AlexNet v2",
            spec=ClusterSpec(2, 1, "training"),
            algorithm=alg,
            config=SimConfig(iterations=2, warmup=1),
        )
        for alg in ("baseline", "tic")
    ]
    with SweepRunner(cache_dir=str(tmp_path)) as runner:
        runner.run_cells(cells + cells[:1])  # one in-batch duplicate
        t = runner.telemetry
        assert t.get("run_cells_calls") == 1
        assert t.get("cells_requested") == 3
        assert t.get("cells_deduped") == 1
        assert t.get("cells_simulated") == 2
        assert t.get("cells_cached") == 0
        assert t.get("sim_wall_s") > 0
        assert 0 < t.get("cell_wall_max_s") <= t.get("sim_wall_s")
        assert t.get("run_cells_wall_s") >= t.get("cell_wall_max_s")

        runner.run_cells(cells)  # warm: served from the on-disk cache
        assert t.get("run_cells_calls") == 2
        assert t.get("cells_cached") == 2
        assert t.get("cells_simulated") == 2  # unchanged


# ----------------------------------------------------------------------
# API surface: ResultSet.telemetry
# ----------------------------------------------------------------------
def test_execute_scenario_publishes_telemetry(tmp_path):
    ctx = Context(scale=MICRO, results_dir=str(tmp_path), verbose=False)
    try:
        first = execute_scenario(ctx, registry.scenario("headline"))
        assert first.telemetry["cells_requested"] > 0
        assert first.telemetry["cells_simulated"] > 0
        assert first.telemetry["cache_writes"] > 0
        assert first.telemetry.get("cells_cached", 0) == 0
        assert first.telemetry["run_cells_wall_s"] > 0

        second = execute_scenario(ctx, registry.scenario("headline"))
        # same scenario again: everything comes back from the cache,
        # and the delta only covers the second run
        assert second.telemetry["cells_cached"] == first.telemetry[
            "cells_simulated"
        ]
        assert "cells_simulated" not in second.telemetry
        assert second.telemetry["cache_hits"] > 0

        rows = second.telemetry_rows()
        assert rows == sorted(rows, key=lambda r: r["counter"])
        assert merge_rows(rows) == second.telemetry
    finally:
        ctx.close()
