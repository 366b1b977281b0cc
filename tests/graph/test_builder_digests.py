"""Pinned structure of every cluster-graph shape the builders emit.

Each digest covers the graph's ops (id, name, kind, device, resource,
cost, param, attrs), their pred/succ lists in order, and the builder's
bookkeeping: ``worker_ops``, ``iteration_ops``, ``transfers_by_link`` and
``param_recvs``, all in order. The engine compiles ops, edges and
transfers in these orders, so any drift here can change simulated
numbers; the digests let the builders be rewritten with proof that the
output did not move.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.collectives import CollectiveSpec, build_collective_graph
from repro.models import build_model
from repro.ps import ClusterSpec, build_cluster_graph

from ..conftest import tiny_model


def graph_digest(cluster) -> str:
    g = cluster.graph
    h = hashlib.sha256()

    def put(*items) -> None:
        h.update(repr(items).encode())
        h.update(b"\n")

    put("graph", g.name, len(g))
    for op in g:
        res = op.resource
        put(
            op.op_id, op.name, op.kind.value, op.device,
            None if res is None else (res.name, res.kind.value),
            repr(op.cost), op.param, sorted(op.attrs.items()),
            list(g.pred_ids(op.op_id)), list(g.succ_ids(op.op_id)),
        )
    put("worker_ops", [(w, ids) for w, ids in cluster.worker_ops.items()])
    put("iteration_ops", [(k, ids) for k, ids in cluster.iteration_ops.items()])
    put("transfers_by_link", [
        (link.name, [
            (t.op_id, t.param, t.src, t.dst, t.kind, t.iteration) for t in ts
        ])
        for link, ts in cluster.transfers_by_link.items()
    ])
    put("param_recvs", [
        (w, list(recvs.items())) for w, recvs in cluster.param_recvs.items()
    ])
    return h.hexdigest()


def _ps(model, n_workers, n_ps, workload, n_iterations=1):
    return lambda: build_cluster_graph(
        model(), ClusterSpec(n_workers, n_ps, workload), n_iterations=n_iterations
    )


def _collective(model, n_workers, topology, **kwargs):
    return lambda: build_collective_graph(
        model(), CollectiveSpec(n_workers, topology, **kwargs)
    )


def alexnet():
    return build_model("AlexNet v2")


#: shape name -> (builder call, digest of its output).
SHAPES = {
    "ps_training": (
        _ps(tiny_model, 3, 2, "training"),
        "20cbd9abdd7f26b510d26bba03406c515be900910ba8234134fe6063c87026bd",
    ),
    "ps_inference": (
        _ps(tiny_model, 2, 1, "inference"),
        "3abbcc9554caa3b7b11b22a6f1d868a5feeab0ebc3f645989b1f986e1e3ab07d",
    ),
    "ps_unrolled": (
        _ps(tiny_model, 2, 2, "training", n_iterations=2),
        "30e66e3a861fbcb49ba6bdf405dbb620bcb27e887335053d128103eecaa403a4",
    ),
    "ps_alexnet": (
        _ps(alexnet, 2, 2, "training"),
        "54d9db004df6848895c0120e255c9e71f513e3933636b6c43a9cfbc568d878e5",
    ),
    "ps_inception_inference": (
        _ps(lambda: build_model("Inception v3"), 2, 1, "inference"),
        "86aff5b51f19222bf6ddfa21082681667e0f8ba9bae50753cc6f03f272c6a821",
    ),
    "ring": (
        _collective(tiny_model, 3, "ring", partition_bytes=4096),
        "136f5616a886d7edaf24da59abe0a80f14977f93d789620fb8d0c8fbc4c85e56",
    ),
    "hierarchical": (
        _collective(alexnet, 4, "hierarchical"),
        "03380f74098ccde5bdf4484ee97bab58ae82319bc66c9d54a157140383c41556",
    ),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_builder_output_is_pinned(shape):
    build, expected = SHAPES[shape]
    assert graph_digest(build()) == expected
