"""Platform cost models and the tracing/estimation pipeline."""

import numpy as np
import pytest

from repro.graph import Graph, OpKind
from repro.timing import (
    ENV_C,
    ENV_G,
    PLATFORMS,
    TRACE_RUNS,
    Platform,
    TraceRecord,
    TracingModule,
    estimate_time_oracle,
    sample_ground_truth,
    trace_platform_runs,
)


def test_presets_exist_and_differ():
    assert PLATFORMS["envG"] is ENV_G
    assert PLATFORMS["envC"] is ENV_C
    assert ENV_G.worker_flops > ENV_C.worker_flops
    assert ENV_G.bandwidth_bps > ENV_C.bandwidth_bps
    with pytest.raises(KeyError, match="unknown platform"):
        PLATFORMS["envX"]


def test_envc_is_more_communication_bound():
    """The calibration property behind Fig. 13's larger envC gains."""
    ratio_g = ENV_G.bandwidth_bps / ENV_G.worker_flops
    ratio_c = ENV_C.bandwidth_bps / ENV_C.worker_flops
    assert ratio_c < ratio_g


def test_compute_time_uses_device_rate():
    p = Platform("t", worker_flops=1e9, ps_flops=1e6, bandwidth_bps=1e6)
    assert p.compute_time(1e9, "worker:0") == pytest.approx(1.0)
    assert p.compute_time(1e6, "ps:0") == pytest.approx(1.0)


def test_transfer_time_includes_latency():
    p = Platform("t", 1e9, 1e9, bandwidth_bps=1e6, rpc_latency_s=0.1)
    assert p.transfer_time(1e6) == pytest.approx(1.1)


def test_op_time_dispatch():
    p = Platform("t", 1e9, 1e8, bandwidth_bps=1e6, op_overhead_s=1e-3)
    g = Graph()
    recv = g.add_op("r", OpKind.RECV, cost=2e6)
    aux = g.add_op("a", OpKind.AUX)
    comp = g.add_op("c", OpKind.COMPUTE, cost=1e9, device="worker:0")
    act = g.add_op("s", OpKind.SEND, cost=0.0, activation_only=True)
    assert p.op_time(recv) == pytest.approx(2.0)
    assert p.op_time(aux) == pytest.approx(1e-3)
    assert p.op_time(comp) == pytest.approx(1.0 + 1e-3)
    assert p.op_time(act) == pytest.approx(1e-3), "activations are not transfers"


def test_nic_slots_by_device_class():
    assert ENV_G.nic_slots("ps:0") == ENV_G.ps_nic_slots > 1
    assert ENV_G.nic_slots("worker:3") == 1
    assert ENV_C.nic_slots("ps:0") == 1


def test_scaled_returns_modified_copy():
    p2 = ENV_G.scaled(bandwidth_bps=1.0)
    assert p2.bandwidth_bps == 1.0
    assert ENV_G.bandwidth_bps != 1.0
    assert p2.worker_flops == ENV_G.worker_flops


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------
@pytest.fixture
def small_graph():
    g = Graph()
    g.add_op("r", OpKind.RECV, cost=1e6)
    g.add_op("c", OpKind.COMPUTE, ["r"], cost=1e9, device="worker:0")
    return g


def test_sample_ground_truth_jitters_around_base(small_graph):
    rng = np.random.default_rng(0)
    plat = ENV_G.scaled(jitter_sigma=0.1)
    times = sample_ground_truth(small_graph, plat, rng)
    base = plat.op_time(small_graph.op("c"))
    assert times["c"] != base
    assert 0.5 * base < times["c"] < 2.0 * base


def test_sample_ground_truth_zero_jitter_is_exact(small_graph):
    rng = np.random.default_rng(0)
    times = sample_ground_truth(small_graph, ENV_G.scaled(jitter_sigma=0.0), rng)
    assert times["c"] == pytest.approx(ENV_G.op_time(small_graph.op("c")))


def test_trace_platform_runs_collects_k_records(small_graph):
    tracer = trace_platform_runs(small_graph, ENV_G, seed=1)
    assert len(tracer) == TRACE_RUNS == 5


def test_estimator_takes_min_across_runs(small_graph):
    tracer = trace_platform_runs(small_graph, ENV_G, seed=1)
    oracle = tracer.estimate_oracle()
    samples = [r.times["c"] for r in tracer.records]
    assert oracle.table["c"] == min(samples)


def test_estimator_requires_records():
    with pytest.raises(ValueError, match="no trace records"):
        TracingModule().estimate_oracle()


def test_trace_record_rejects_negative_times():
    with pytest.raises(ValueError, match="negative"):
        TraceRecord(times={"a": -1.0})


def test_estimate_time_oracle_deterministic(small_graph):
    a = estimate_time_oracle(small_graph, ENV_G, seed=3)
    b = estimate_time_oracle(small_graph, ENV_G, seed=3)
    assert a.table == b.table


def test_estimated_oracle_near_ground_truth(small_graph):
    """min-of-5 under lognormal jitter lands below—but near—the base."""
    oracle = estimate_time_oracle(small_graph, ENV_G, seed=0)
    base = ENV_G.op_time(small_graph.op("c"))
    assert 0.7 * base < oracle.table["c"] <= base * 1.05
