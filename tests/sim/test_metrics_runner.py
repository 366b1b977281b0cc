"""Metrics summarization and the high-level runner."""

import numpy as np
import pytest

from repro.core import Schedule
from repro.ps import ClusterSpec, build_cluster_graph
from repro.sim import (
    CompiledCore,
    SimConfig,
    SimVariant,
    simulate_cluster,
    speedup_vs_baseline,
    summarize_iteration,
)

from ..conftest import tiny_model
from .test_engine import FLAT


@pytest.fixture(scope="module")
def cluster():
    return build_cluster_graph(tiny_model(), ClusterSpec(2, 1, "training"))


def test_summarize_iteration_fields(cluster):
    sim = SimVariant(CompiledCore(cluster, FLAT), None, SimConfig(iterations=1))
    record = sim.run_iteration(0)
    it = summarize_iteration(sim, record)
    assert set(it.worker_finish) == {"worker:0", "worker:1"}
    assert 0.0 <= it.efficiency.efficiency <= 1.0
    assert it.makespan == record.makespan


def test_straggler_pct_definition(cluster):
    sim = SimVariant(CompiledCore(cluster, FLAT.scaled(jitter_sigma=0.05)), None, SimConfig(iterations=1))
    it = summarize_iteration(sim, sim.run_iteration(0))
    finishes = list(it.worker_finish.values())
    expected = (max(finishes) - min(finishes)) / it.makespan * 100
    assert it.straggler_pct == pytest.approx(expected)
    assert 0 <= it.straggler_pct < 100


def test_single_worker_has_zero_straggler():
    cluster = build_cluster_graph(tiny_model(), ClusterSpec(1, 1, "inference"))
    sim = SimVariant(CompiledCore(cluster, FLAT), None, SimConfig(iterations=1))
    it = summarize_iteration(sim, sim.run_iteration(0))
    assert it.straggler_pct == 0.0


def test_worker_finish_no_later_than_makespan(cluster):
    sim = SimVariant(CompiledCore(cluster, FLAT), None, SimConfig(iterations=1))
    it = summarize_iteration(sim, sim.run_iteration(0))
    assert all(f <= it.makespan + 1e-12 for f in it.worker_finish.values())


# ----------------------------------------------------------------------
# runner
# ----------------------------------------------------------------------
def test_simulate_cluster_records_and_warmup(monkeypatch):
    """The recorded iterations are indices ``warmup..warmup+iterations-1``
    of the same variant, and no warm-up index is simulated."""
    spec = ClusterSpec(2, 1, "training")
    cfg = SimConfig(iterations=3, warmup=2, seed=1)
    ir = tiny_model()
    sim = SimVariant(CompiledCore(build_cluster_graph(ir, spec), FLAT), None, cfg)
    expected = [
        summarize_iteration(sim, record)
        for record in sim.run_iterations(cfg.warmup, cfg.iterations)
    ]

    simulated: list[int] = []
    original = SimVariant.iter_iterations

    def spy(self, first=0, count=1):
        simulated.extend(range(first, first + count))
        return original(self, first, count)

    monkeypatch.setattr(SimVariant, "iter_iterations", spy)
    result = simulate_cluster(ir, spec, algorithm="baseline",
                              platform=FLAT, config=cfg)
    assert simulated == [2, 3, 4]
    assert result.iterations == expected
    assert not hasattr(result, "warmup")
    assert result.algorithm == "baseline"
    assert result.throughput == pytest.approx(
        2 * 8 / result.mean_iteration_time
    )


def test_simulate_cluster_summary_keys():
    spec = ClusterSpec(2, 1, "inference")
    result = simulate_cluster(tiny_model(), spec, algorithm="tic",
                              platform=FLAT, config=SimConfig(iterations=2))
    s = result.summary()
    for key in ("model", "workload", "algorithm", "throughput_sps",
                "straggler_pct_max", "efficiency_mean"):
        assert key in s
    assert s["algorithm"] == "tic"


def test_simulate_cluster_accepts_precomputed_schedule():
    ir = tiny_model()
    spec = ClusterSpec(2, 1, "training")
    params = [p.name for p in ir.params]
    schedule = Schedule("custom", {p: i for i, p in enumerate(params)})
    result = simulate_cluster(ir, spec, schedule=schedule, platform=FLAT,
                              config=SimConfig(iterations=2))
    assert result.algorithm == "custom"


def test_speedup_vs_baseline_signature():
    spec = ClusterSpec(2, 1, "inference")
    gain, sched, base = speedup_vs_baseline(
        tiny_model(), spec, algorithm="tic", platform=FLAT,
        config=SimConfig(iterations=2),
    )
    assert sched.algorithm == "tic" and base.algorithm == "baseline"
    assert gain == pytest.approx(
        (sched.throughput - base.throughput) / base.throughput * 100
    )


def test_results_reproducible_across_calls():
    spec = ClusterSpec(2, 1, "training")
    cfg = SimConfig(iterations=2, seed=4)
    a = simulate_cluster(tiny_model(), spec, algorithm="tic", platform=FLAT, config=cfg)
    b = simulate_cluster(tiny_model(), spec, algorithm="tic", platform=FLAT, config=cfg)
    assert np.array_equal(a.iteration_times, b.iteration_times)
