"""Ring all-reduce: analytic wire bound, conservation, DAG structure."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectives import CollectiveSpec, build_collective_graph
from repro.graph import OpKind, ResourceKind
from repro.sim import SimConfig, simulate_cluster
from repro.timing.platform import WIRE

from ..conftest import examples, tiny_model
from ..strategies import model_irs


def transfer_ops(cluster):
    return [
        op
        for op in cluster.graph
        if op.resource is not None and op.resource.kind is ResourceKind.LINK
    ]


def ring_bound_s(nbytes: float, n_workers: int) -> float:
    return 2 * (n_workers - 1) / n_workers * nbytes / WIRE.bandwidth_bps


@pytest.mark.parametrize("n_workers", [2, 3, 4, 8])
def test_ring_makespan_matches_analytic_bound(n_workers):
    """The acceptance bound: on a homogeneous comm-only platform the ring
    simulates to within 5% of 2(W-1)/W * M/B (single fused chunk)."""
    ir = tiny_model()
    spec = CollectiveSpec(n_workers=n_workers, topology="ring")
    res = simulate_cluster(
        ir, spec, algorithm="baseline", platform=WIRE,
        config=SimConfig(iterations=2, warmup=0),
    )
    bound = ring_bound_s(ir.total_param_bytes, n_workers)
    assert res.mean_iteration_time >= bound * (1 - 1e-9)
    assert res.mean_iteration_time <= bound * 1.05


def test_ring_bound_holds_under_partitioning():
    """Many chunks pipeline across the ring without opening bubbles."""
    ir = tiny_model()
    spec = CollectiveSpec(n_workers=4, topology="ring", partition_bytes=1024)
    cluster = build_collective_graph(ir, spec)
    assert len(cluster.chunks) > 5
    res = simulate_cluster(
        ir, spec, algorithm="baseline", platform=WIRE,
        config=SimConfig(iterations=2, warmup=0),
    )
    bound = ring_bound_s(ir.total_param_bytes, 4)
    assert bound * (1 - 1e-9) <= res.mean_iteration_time <= bound * 1.05


def test_ring_byte_conservation():
    """Every worker forwards 2(W-1) segments of E/W per chunk: total wire
    bytes are exactly 2(W-1) * M."""
    ir = tiny_model()
    W = 4
    cluster = build_collective_graph(
        ir, CollectiveSpec(n_workers=W, topology="ring", partition_bytes=4096)
    )
    total = sum(op.cost for op in transfer_ops(cluster))
    assert total == pytest.approx(2 * (W - 1) * ir.total_param_bytes, rel=1e-9)
    per_worker = {w: 0.0 for w in cluster.spec.workers}
    for op in transfer_ops(cluster):
        per_worker[op.device] += op.cost
    expected = 2 * (W - 1) / W * ir.total_param_bytes
    for w, sent in per_worker.items():
        assert sent == pytest.approx(expected, rel=1e-9)


def test_single_worker_degenerates_to_local_update():
    ir = tiny_model()
    cluster = build_collective_graph(ir, CollectiveSpec(n_workers=1))
    assert transfer_ops(cluster) == []
    res = simulate_cluster(
        ir, CollectiveSpec(n_workers=1), algorithm="baseline", platform=WIRE,
        config=SimConfig(iterations=1, warmup=0),
    )
    assert res.mean_iteration_time > 0


@given(
    model_irs(max_convs=3),
    st.sampled_from([1, 2, 3, 4]),
    st.sampled_from(["ring", "hierarchical"]),
    st.sampled_from([256, 4096, 2**20]),
)
@settings(max_examples=examples(15), deadline=None)
def test_collective_graph_structural_invariants(
    ir, n_workers, topology, partition_bytes
):
    """Property test: any (model, W, topology, partitioning) yields a
    valid acyclic resource-tagged DAG with per-worker update coverage."""
    spec = CollectiveSpec(
        n_workers=n_workers,
        topology=topology,
        partition_bytes=partition_bytes,
    )
    cluster = build_collective_graph(ir, spec)
    g = cluster.graph
    g.validate()  # structural invariants + cycle-free by construction
    assert len(g.topological_order()) == len(g)
    # every op carries a resource tag (the engine requires it)
    assert all(op.resource is not None for op in g)
    # one update per (worker, chunk)
    updates = g.ops_of_kind(OpKind.UPDATE)
    assert len(updates) == n_workers * len(cluster.chunks)
    # no PS-style recv/send survives: collective graphs gate locally
    assert g.ops_of_kind(OpKind.RECV) == []
    # chunk metadata covers every registered transfer
    for transfers in cluster.transfers_by_link.values():
        for t in transfers:
            assert t.kind == "chunk"
            assert t.param in cluster.chunk_params
    # the engine can execute it (no deadlock, all ops finish)
    res = simulate_cluster(
        ir, spec, algorithm="baseline", platform=WIRE,
        config=SimConfig(iterations=1, warmup=0),
    )
    assert np.isfinite(res.mean_iteration_time)


def test_both_builders_return_one_cluster_layout():
    """PS and all-reduce builders return the one ``ClusterGraph`` type:
    the chunk fields stay empty under PS, the all-reduce placement holds
    every parameter locally, and a mix prefixes only the all-reduce
    job's chunks."""
    from repro.collectives.graph import LOCAL
    from repro.ps import ClusterGraph, ClusterSpec, build_cluster_graph
    from repro.sim import JobMixSpec, JobSpec, build_jobmix_graph

    ir = tiny_model()
    ps = build_cluster_graph(ir, ClusterSpec(2, 1, "training"))
    ar = build_collective_graph(ir, CollectiveSpec(n_workers=3, topology="ring"))
    assert isinstance(ps, ClusterGraph) and isinstance(ar, ClusterGraph)
    assert ps.chunks == [] and ps.chunk_params == {} and ps.chunk_order == {}
    assert ar.chunks and ar.placement == {p.name: LOCAL for p in ir.params}

    mix = build_jobmix_graph(None, JobMixSpec(jobs=(
        JobSpec("AlexNet v2", n_workers=2, n_ps=1),
        JobSpec("AlexNet v2", backend="allreduce", n_workers=2),
    )))
    assert mix.chunk_params
    assert all(name.startswith("j1/") for name in mix.chunk_params)
