"""Chunked NIC-sharing semantics: serialization, capacity, invariance."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.ps import ClusterSpec, build_cluster_graph
from repro.sim import CompiledCore, SimConfig, SimVariant
from repro.timing import Platform

from ..conftest import tiny_model

# a platform where transfers dominate, to exercise the NIC paths
COMM_HEAVY = Platform(
    name="comm-heavy",
    worker_flops=1e12,
    ps_flops=1e12,
    bandwidth_bps=1e7,
    rpc_latency_s=1e-5,
    op_overhead_s=0.0,
    jitter_sigma=0.0,
)


@pytest.fixture(scope="module")
def cluster():
    return build_cluster_graph(tiny_model(), ClusterSpec(3, 1, "inference"))


def run(cluster, platform=COMM_HEAVY, **cfg):
    sim = SimVariant(CompiledCore(cluster, platform), None, SimConfig(**{"iterations": 1, **cfg}))
    return sim, sim.run_iteration(0)


def test_total_wire_time_independent_of_chunk_size(cluster):
    """Chunking changes interleaving, not work: with a single-slot PS NIC
    serving everything, the comm phase length is chunk-size invariant."""
    makespans = []
    for chunk in (1 << 18, 1 << 20, 1 << 24):
        _, record = run(cluster, chunk_bytes=chunk)
        makespans.append(record.makespan)
    assert max(makespans) / min(makespans) < 1.02


def test_transfer_spans_cover_their_wire_time(cluster):
    sim, record = run(cluster)
    for op_id in np.flatnonzero(sim.core.is_transfer):
        span = record.end[op_id] - record.start[op_id]
        assert span >= sim.core.wire_base[op_id] - 1e-12


def test_round_robin_interleaves_workers(cluster):
    """With 3 equal channels on one egress NIC and small chunks, the three
    workers' first transfers all start within one chunk round of each
    other (fairness — the TCP-sharing property the chunks model)."""
    sim, record = run(cluster, chunk_bytes=1 << 18)
    first_starts = []
    for link, transfers in cluster.transfers_by_link.items():
        starts = [record.start[t.op_id] for t in transfers]
        first_starts.append(min(starts))
    chunk_time = (1 << 18) / COMM_HEAVY.bandwidth_bps
    assert max(first_starts) - min(first_starts) <= 3.5 * chunk_time


def test_multislot_ps_nic_reaches_capacity():
    """With ps_nic_slots=3 and 3 workers, the PS egress serves all three
    concurrently: the pull phase shrinks by ~3x vs a single slot."""
    cluster = build_cluster_graph(tiny_model(), ClusterSpec(3, 1, "inference"))
    narrow = COMM_HEAVY
    wide = Platform(**{**COMM_HEAVY.__dict__, "name": "wide", "ps_nic_slots": 3})
    _, r_narrow = run(cluster, platform=narrow)
    _, r_wide = run(cluster, platform=wide)
    assert r_wide.makespan < r_narrow.makespan / 2


def test_makespan_at_least_critical_path(cluster):
    """Dependencies alone lower-bound the makespan (dedicated times)."""
    sim, record = run(cluster)
    g = cluster.graph
    finish = np.zeros(len(g))
    for op in g:
        start = max((finish[p] for p in g.pred_ids(op.op_id)), default=0.0)
        finish[op.op_id] = start + record.dedicated[op.op_id]
    assert record.makespan >= finish.max() - 1e-9


def test_zero_cost_transfer_legal():
    """Degenerate zero-byte transfers complete after one latency."""
    from repro.graph import Graph, OpKind, PartitionedGraph, Resource
    from repro.models.ir import ParamTensor
    from repro.ps.cluster import ClusterGraph, ClusterSpec, Transfer

    ir = tiny_model()
    cluster = build_cluster_graph(ir, ClusterSpec(1, 1, "inference"))
    # shrink one transfer to zero bytes; a cluster's graph is a view of
    # its tiling, so the edited DAG is compiled by the block compiler
    t = cluster.param_transfers[0]
    cluster.graph.op(t.op_id).cost = 0.0
    edited = SimpleNamespace(
        graph=cluster.graph,
        transfers_by_link=cluster.transfers_by_link,
        worker_ops=cluster.worker_ops,
    )
    sim = SimVariant(CompiledCore(edited, COMM_HEAVY), None, SimConfig(iterations=1))
    record = sim.run_iteration(0)
    span = record.end[t.op_id] - record.start[t.op_id]
    assert span == pytest.approx(COMM_HEAVY.rpc_latency_s)
