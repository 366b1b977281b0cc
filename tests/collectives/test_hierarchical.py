"""Hierarchical (two-level) all-reduce: structure and wire accounting."""

from __future__ import annotations

import pytest

from repro.collectives import CollectiveSpec, build_collective_graph
from repro.graph import OpKind, ResourceKind
from repro.sim import SimConfig, simulate_cluster
from repro.timing.platform import WIRE

from ..conftest import tiny_model


def transfer_ops(cluster):
    return [
        op
        for op in cluster.graph
        if op.resource is not None and op.resource.kind is ResourceKind.LINK
    ]


def test_hierarchical_byte_conservation():
    """Per chunk: L(G-1) full-chunk reduces in, 2(L-1) ring bytes,
    L(G-1) full-chunk broadcasts out."""
    ir = tiny_model()
    spec = CollectiveSpec(n_workers=8, topology="hierarchical")
    assert spec.effective_group_size == 4
    cluster = build_collective_graph(ir, spec)
    L, G = spec.n_groups, spec.effective_group_size
    M = ir.total_param_bytes
    expected = (2 * L * (G - 1) + 2 * (L - 1)) * M
    total = sum(op.cost for op in transfer_ops(cluster))
    assert total == pytest.approx(expected, rel=1e-9)


def test_group_reduce_ops_on_leaders_only():
    ir = tiny_model()
    spec = CollectiveSpec(n_workers=4, topology="hierarchical")
    assert spec.effective_group_size == 2
    cluster = build_collective_graph(ir, spec)
    reduces = cluster.graph.ops_of_kind(OpKind.AGGREGATE)
    leaders = {group[0] for group in spec.groups()}
    assert len(reduces) == len(leaders) * len(cluster.chunks)
    assert {op.device for op in reduces} == leaders


def test_hierarchical_single_chunk_matches_leader_bottleneck():
    """One chunk serializes the three phases: (G-1)M/B in, the leaders'
    ring, (G-1)M/B out."""
    ir = tiny_model()
    spec = CollectiveSpec(n_workers=4, topology="hierarchical")
    assert spec.effective_group_size == 2
    res = simulate_cluster(
        ir, spec, algorithm="baseline", platform=WIRE,
        config=SimConfig(iterations=2, warmup=0),
    )
    M, B = ir.total_param_bytes, WIRE.bandwidth_bps
    L, G = spec.n_groups, spec.effective_group_size
    bound = ((G - 1) * M + 2 * (L - 1) / L * M + (G - 1) * M) / B
    assert res.mean_iteration_time >= bound * (1 - 1e-9)
    assert res.mean_iteration_time <= bound * 1.05


def test_group_of_one_degenerates_to_ring():
    """Groups of one (W=3 has no divisor that leaves two groups) make
    every worker a leader: the hierarchical emitter reduces to the plain
    ring (same wire bytes, same wire makespan)."""
    ir = tiny_model()
    ring = CollectiveSpec(n_workers=3, topology="ring")
    hier = CollectiveSpec(n_workers=3, topology="hierarchical")
    assert hier.effective_group_size == 1
    ring_bytes = sum(
        op.cost for op in transfer_ops(build_collective_graph(ir, ring))
    )
    hier_bytes = sum(
        op.cost for op in transfer_ops(build_collective_graph(ir, hier))
    )
    assert hier_bytes == pytest.approx(ring_bytes, rel=1e-12)
    cfg = SimConfig(iterations=1, warmup=0)
    r = simulate_cluster(ir, ring, algorithm="baseline", platform=WIRE, config=cfg)
    h = simulate_cluster(ir, hier, algorithm="baseline", platform=WIRE, config=cfg)
    assert h.mean_iteration_time == pytest.approx(r.mean_iteration_time, rel=1e-6)
