"""Cluster-graph assembly: PS subgraphs, replicas, stitching."""

import pytest

from repro.graph import GraphError, OpKind, PartitionedGraph, Resource
from repro.ps import ClusterSpec, build_cluster_graph, build_reference_partition
from repro.ps.sharding import shard_parameters

from ..conftest import tiny_model


@pytest.fixture(scope="module")
def ir():
    return tiny_model()


@pytest.fixture(scope="module")
def train_cluster(ir):
    return build_cluster_graph(ir, ClusterSpec(3, 2, "training"))


@pytest.fixture(scope="module")
def infer_cluster(ir):
    return build_cluster_graph(ir, ClusterSpec(2, 1, "inference"))


def test_spec_validation():
    with pytest.raises(ValueError):
        ClusterSpec(0, 1)
    with pytest.raises(ValueError):
        ClusterSpec(1, 0)
    with pytest.raises(ValueError):
        ClusterSpec(1, 1, workload="serving")
    assert ClusterSpec(4, 2).workers == ["worker:0", "worker:1", "worker:2", "worker:3"]


def test_cluster_validates_and_partitions(train_cluster):
    train_cluster.graph.validate()
    PartitionedGraph(train_cluster.graph)


def test_param_transfer_count(ir, train_cluster):
    # one param pull per (param, worker)
    assert len(train_cluster.param_transfers) == ir.n_param_tensors * 3


def test_grad_transfer_count(ir, train_cluster):
    grads = [
        t
        for ts in train_cluster.transfers_by_link.values()
        for t in ts
        if t.kind == "grad"
    ]
    assert len(grads) == ir.n_param_tensors * 3


def test_inference_has_no_grad_path(ir, infer_cluster):
    g = infer_cluster.graph
    assert not g.ops_of_kind(OpKind.AGGREGATE)
    assert not g.ops_of_kind(OpKind.UPDATE)
    kinds = {t.kind for ts in infer_cluster.transfers_by_link.values() for t in ts}
    assert kinds == {"param"}


def test_ps_five_op_subgraph_per_param_training(ir, train_cluster):
    """§2.2: 'PS DAG has five ops per parameter: aggregation, send, recv,
    read, and update' (send/recv once per worker)."""
    g = train_cluster.graph
    W = train_cluster.spec.n_workers
    n = ir.n_param_tensors
    assert len(g.ops_of_kind(OpKind.READ)) == n
    assert len(g.ops_of_kind(OpKind.AGGREGATE)) == n
    assert len(g.ops_of_kind(OpKind.UPDATE)) == n
    ps_sends = [o for o in g.ops_of_kind(OpKind.SEND) if o.attrs.get("activation_only")]
    ps_recvs = [o for o in g.ops_of_kind(OpKind.RECV) if o.attrs.get("activation_only")]
    assert len(ps_sends) == n * W
    assert len(ps_recvs) == n * W


def test_update_is_leaf_and_read_is_root(train_cluster):
    g = train_cluster.graph
    for op in g.ops_of_kind(OpKind.UPDATE):
        assert g.out_degree(op) == 0, "update feeds the *next* iteration"
    for op in g.ops_of_kind(OpKind.READ):
        assert g.in_degree(op) == 0, "read serves last iteration's value"


def test_aggregate_waits_for_all_workers(train_cluster):
    g = train_cluster.graph
    W = train_cluster.spec.n_workers
    for op in g.ops_of_kind(OpKind.AGGREGATE):
        assert g.in_degree(op) == W
        assert op.cost > 0


def test_transfer_links_match_placement(train_cluster):
    placement = train_cluster.placement
    for link, transfers in train_cluster.transfers_by_link.items():
        for t in transfers:
            if t.kind == "param":
                assert link == Resource.link(placement[t.param], t.dst)
            else:
                assert link == Resource.link(t.src, placement[t.param])


def test_worker_ops_cover_replicas(ir, train_cluster):
    for worker, ids in train_cluster.worker_ops.items():
        devices = {train_cluster.graph.op(i).device for i in ids}
        assert devices == {worker}
    # every worker sees one recv per param
    for worker, recvs in train_cluster.param_recvs.items():
        assert set(recvs) == {p.name for p in ir.params}


def test_placement_comes_from_sharding(ir):
    spec = ClusterSpec(2, 2, "training", sharding="round_robin")
    cluster = build_cluster_graph(ir, spec)
    assert cluster.placement == shard_parameters(ir.params, spec.ps, "round_robin")
    assert set(cluster.placement) == {p.name for p in ir.params}


# ----------------------------------------------------------------------
# reference partition
# ----------------------------------------------------------------------
def test_reference_partition_resources(ir):
    ref = build_reference_partition(ir, workload="training", n_ps=2)
    names = {r.name for r in ref.partition.resources}
    assert "compute:worker:0" in names
    assert "link:ps:0->worker:0" in names
    assert "link:worker:0->ps:1" in names


def test_reference_partition_recv_params_ordered(ir):
    ref = build_reference_partition(ir, workload="inference", n_ps=1)
    assert ref.recv_params == [p.name for p in ir.params]


def test_reference_partition_inference_has_no_sends(ir):
    ref = build_reference_partition(ir, workload="inference", n_ps=1)
    assert not ref.graph.ops_of_kind(OpKind.SEND)


def test_unknown_sharding_fails_at_construction():
    with pytest.raises(ValueError, match="unknown sharding 'round-robin'.*"
                       "did you mean 'round_robin'"):
        ClusterSpec(2, 1, "training", sharding="round-robin")
    # a PS job of a mix is checked when it is declared, not when built
    from repro.sim import JobSpec

    with pytest.raises(ValueError, match="unknown sharding 'bogus'"):
        JobSpec("AlexNet v2", sharding="bogus")
