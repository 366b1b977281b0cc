"""Discrete-event engine: correctness invariants on a small cluster."""

import numpy as np
import pytest

from repro.core import Schedule
from repro.ps import ClusterSpec, build_cluster_graph
from repro.sim import CompiledCore, SimConfig, SimVariant
from repro.timing import ENV_G, Platform

from ..conftest import tiny_model

#: deterministic platform for exact assertions.
FLAT = Platform(
    name="flat",
    worker_flops=1e10,
    ps_flops=1e10,
    bandwidth_bps=1e8,
    rpc_latency_s=1e-4,
    op_overhead_s=1e-6,
    jitter_sigma=0.0,
)


@pytest.fixture(scope="module")
def cluster():
    return build_cluster_graph(tiny_model(), ClusterSpec(2, 1, "training"))


def compile_sim(cluster, schedule=None, **cfg):
    config = SimConfig(**{"iterations": 1, "grpc_reorder_prob": 0.0, **cfg})
    return SimVariant(CompiledCore(cluster, FLAT), schedule, config)


def layerwise(cluster):
    params = [p.name for p in cluster.model.params]
    return Schedule("layerwise", {p: i for i, p in enumerate(params)})


def test_every_op_runs_exactly_once(cluster):
    record = compile_sim(cluster).run_iteration(0)
    assert not np.isnan(record.end).any()
    assert (record.end >= record.start - 1e-12).all()
    assert record.makespan == pytest.approx(np.max(record.end))


def test_dependencies_respected(cluster):
    record = compile_sim(cluster).run_iteration(0)
    g = cluster.graph
    for op in g:
        for p in g.pred_ids(op.op_id):
            assert record.end[p] <= record.start[op.op_id] + 1e-12, (
                f"{g.op(p).name} must finish before {op.name} starts"
            )


def test_compute_resources_never_overlap(cluster):
    """Capacity-1 resource exclusivity: intervals on one compute resource
    are pairwise disjoint."""
    record = compile_sim(cluster).run_iteration(0)
    by_res = {}
    for op in cluster.graph:
        if not op.resource.name.startswith("link"):
            by_res.setdefault(op.resource.name, []).append(
                (record.start[op.op_id], record.end[op.op_id])
            )
    for intervals in by_res.values():
        intervals.sort()
        for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
            assert e1 <= s2 + 1e-12


def test_deterministic_given_seed(cluster):
    a = compile_sim(cluster, seed=5).run_iteration(3)
    b = compile_sim(cluster, seed=5).run_iteration(3)
    assert np.array_equal(a.end, b.end)
    assert a.makespan == b.makespan


def test_different_iterations_differ_under_jitter(cluster):
    sim = SimVariant(CompiledCore(cluster, FLAT.scaled(jitter_sigma=0.05)), None, SimConfig(iterations=1, seed=0))
    assert sim.run_iteration(0).makespan != sim.run_iteration(1).makespan


def test_baseline_iterations_shuffle_transfer_order(cluster):
    """Vanilla TF: the order of received parameters varies per iteration
    (the §2.2 observation that motivates the paper)."""
    sim = compile_sim(cluster)
    orders = set()
    link = next(iter(cluster.transfers_by_link))
    transfers = [t for t in cluster.transfers_by_link[link] if t.kind == "param"]
    for i in range(5):
        record = sim.run_iteration(i)
        orders.add(tuple(sorted(
            (t.param for t in transfers),
            key=lambda p: record.start[[x.op_id for x in transfers if x.param == p][0]],
        )))
    assert len(orders) > 1


def test_transfer_duration_is_wire_plus_latency(cluster):
    record = compile_sim(cluster).run_iteration(0)
    for transfers in cluster.transfers_by_link.values():
        for t in transfers:
            op = cluster.graph.op(t.op_id)
            expected = op.cost / FLAT.bandwidth_bps + FLAT.rpc_latency_s
            measured = record.end[t.op_id] - record.start[t.op_id]
            # chunked round-robin can stretch a transfer, never shrink it
            assert measured >= expected - 1e-12
            assert record.dedicated[t.op_id] == pytest.approx(expected)


def test_makespan_at_least_bottleneck_load(cluster):
    sim = compile_sim(cluster)
    record = sim.run_iteration(0)
    loads = sim.resource_loads(record)
    assert record.makespan >= max(loads.values()) - 1e-9


def test_makespan_at_most_serialized_time(cluster):
    record = compile_sim(cluster).run_iteration(0)
    assert record.makespan <= record.dedicated.sum() + 1e-9


def test_schedule_reduces_or_keeps_makespan(cluster):
    base = compile_sim(cluster).run_iteration(0)
    sched = compile_sim(cluster, layerwise(cluster)).run_iteration(0)
    assert sched.makespan <= base.makespan * 1.05


def test_untagged_resource_rejected():
    from repro.graph import Graph

    g = Graph()
    g.add_op("naked")
    bad = build_cluster_graph(tiny_model(), ClusterSpec(1, 1, "inference"))
    bad.tiling.glue.op(0).resource = None  # the first PS read
    with pytest.raises(ValueError, match="resource tag"):
        SimVariant(CompiledCore(bad, FLAT))


def test_resource_names_cover_nics_and_computes(cluster):
    sim = compile_sim(cluster)
    names = sim.core.resource_names()
    assert "compute:worker:0" in names
    assert "nic_out:ps:0" in names
    assert "nic_in:worker:1" in names
