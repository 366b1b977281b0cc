"""Graph construction, lookup, edges and validation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import Graph, GraphError, Op, OpKind, Resource

from ..conftest import examples


def test_add_op_assigns_dense_ids():
    g = Graph()
    a = g.add_op("a")
    b = g.add_op("b", inputs=["a"])
    assert (a.op_id, b.op_id) == (0, 1)
    assert len(g) == 2


def test_duplicate_name_rejected():
    g = Graph()
    g.add_op("a")
    with pytest.raises(GraphError, match="duplicate"):
        g.add_op("a")


def test_unknown_input_rejected():
    g = Graph()
    with pytest.raises(GraphError, match="unknown op name"):
        g.add_op("a", inputs=["ghost"])


def test_negative_cost_rejected():
    g = Graph()
    with pytest.raises(GraphError, match="negative cost"):
        g.add_op("a", cost=-1.0)


def test_inputs_by_name_id_and_object():
    g = Graph()
    a = g.add_op("a")
    g.add_op("b", inputs=[a])
    g.add_op("c", inputs=[0, "b"])
    assert [p.name for p in g.predecessors("c")] == ["a", "b"]


def test_pred_succ_symmetry():
    g = Graph()
    g.add_op("a")
    g.add_op("b", inputs=["a"])
    g.add_op("c", inputs=["a", "b"])
    assert [s.name for s in g.successors("a")] == ["b", "c"]
    assert g.in_degree("c") == 2
    assert g.out_degree("c") == 0


def test_duplicate_inputs_collapse_to_one_edge():
    g = Graph()
    g.add_op("a")
    g.add_op("b", inputs=["a", "a", 0])
    assert g.in_degree("b") == 1


def test_roots_and_leaves():
    g = Graph()
    g.add_op("r1")
    g.add_op("r2")
    g.add_op("mid", inputs=["r1", "r2"])
    g.add_op("leaf", inputs=["mid"])
    assert {op.name for op in g.roots()} == {"r1", "r2"}
    assert [op.name for op in g.leaves()] == ["leaf"]


def test_add_edge_rejects_cycle():
    g = Graph()
    g.add_op("a")
    g.add_op("b", inputs=["a"])
    g.add_op("c", inputs=["b"])
    with pytest.raises(GraphError, match="cycle"):
        g.add_edge("c", "a")


def test_add_edge_rejects_self_loop():
    g = Graph()
    g.add_op("a")
    with pytest.raises(GraphError, match="self-loop"):
        g.add_edge("a", "a")


def test_add_edge_idempotent():
    g = Graph()
    g.add_op("a")
    g.add_op("b")
    g.add_edge("a", "b")
    g.add_edge("a", "b")
    assert g.in_degree("b") == 1


def _forward_reaches(g: Graph, src: int, dst: int) -> bool:
    """Plain forward DFS: the reference the bidirectional search must match."""
    seen = {src}
    stack = [src]
    while stack:
        u = stack.pop()
        if u == dst:
            return True
        for v in g.succ_ids(u):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return False


@st.composite
def dags_with_back_edges(draw):
    """A random DAG built forward through ``add_op``, then stitched with
    ``add_edge`` calls that may point from a later op to an earlier one
    (the PS send -> recv pattern); calls that would close a cycle must be
    refused exactly when the reference DFS finds the reverse path."""
    n = draw(st.integers(min_value=2, max_value=24))
    g = Graph()
    for i in range(n):
        inputs = draw(st.sets(st.integers(0, i - 1), max_size=3)) if i else set()
        g.add_op(f"op{i}", inputs=sorted(inputs))
    for a, b in draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=30)
    ):
        if a == b:
            continue
        closes_cycle = _forward_reaches(g, b, a)
        if closes_cycle:
            with pytest.raises(GraphError, match="cycle"):
                g.add_edge(a, b)
        else:
            g.add_edge(a, b)
    return g


@given(dags_with_back_edges())
@settings(max_examples=examples(80), deadline=None)
def test_bidirectional_reachability_matches_forward_dfs(g):
    n = len(g)
    for a in range(n):
        for b in range(n):
            assert g._reaches(a, b) == _forward_reaches(g, a, b)
    g.validate()


def _renamed(prefix):
    def rebuild(op, new_id):
        return Op(
            new_id, prefix + op.name, op.kind, op.resource, op.cost,
            op.param, op.device, dict(op.attrs),
        )

    return rebuild


def test_splice_with_rename():
    src = Graph("src")
    src.add_op("x", cost=2.0, tag="keep")
    src.add_op("y", inputs=["x"])
    dst = Graph("dst")
    dst.add_op("existing")
    ids = dst.splice(src, _renamed("w/"))
    assert ids == [1, 2]
    assert [dst.op(ids[op.op_id]).name for op in src] == ["w/x", "w/y"]
    assert dst.op("w/x").cost == 2.0
    assert dst.op("w/x").attrs["tag"] == "keep"
    assert [p.name for p in dst.predecessors("w/y")] == ["w/x"]
    assert [s.name for s in dst.successors("w/x")] == ["w/y"]
    dst.validate()


def test_splice_attrs_are_independent_copies():
    src = Graph("src")
    src.add_op("x", tag="orig")
    dst = Graph("dst")
    dst.splice(src, _renamed(""))
    dst.op("x").attrs["tag"] = "changed"
    assert src.op("x").attrs["tag"] == "orig"


def test_splice_copies_back_edges_and_adjacency_independently():
    src = Graph("src")
    src.add_op("a")
    src.add_op("b")
    src.add_edge("b", "a")  # later -> earlier
    dst = Graph("dst")
    dst.add_op("existing")
    dst.splice(src, _renamed("w/"))
    assert [p.name for p in dst.predecessors("w/a")] == ["w/b"]
    dst.add_op("tail", inputs=["w/a"])
    assert [s.name for s in dst.successors("w/a")] == ["tail"]
    assert src.succ_ids(0) == []


def test_splice_rejects_bad_rebuilds():
    src = Graph("src")
    src.add_op("x")
    dst = Graph("dst")
    dst.add_op("x")
    with pytest.raises(GraphError, match="duplicate"):
        dst.splice(src, _renamed(""))
    with pytest.raises(GraphError, match="op_id"):
        dst.splice(src, lambda op, new_id: _renamed("w/")(op, new_id + 1))


def test_topological_order_with_key():
    g = Graph()
    g.add_op("b")
    g.add_op("a")
    g.add_op("c", inputs=["a", "b"])
    order = [op.name for op in g.topological_order(key=lambda op: op.name)]
    assert order == ["a", "b", "c"]


def test_insertion_order_is_topological():
    g = Graph()
    g.add_op("a")
    g.add_op("b", inputs=["a"])
    g.add_op("c", inputs=["a"])
    order = g.topological_order()
    pos = {op.name: i for i, op in enumerate(order)}
    assert pos["a"] < pos["b"] and pos["a"] < pos["c"]


def test_validate_rejects_recv_with_same_device_pred():
    g = Graph()
    g.add_op("pre", device="worker:0")
    g.add_op("r", OpKind.RECV, inputs=["pre"], device="worker:0")
    with pytest.raises(GraphError, match="roots"):
        g.validate()


def test_validate_allows_recv_with_cross_device_pred():
    g = Graph()
    g.add_op("send", OpKind.SEND, device="ps:0")
    g.add_op("r", OpKind.RECV, inputs=["send"], device="worker:0")
    g.validate()


def test_total_cost_filters_by_kind():
    g = Graph()
    g.add_op("a", OpKind.COMPUTE, cost=2.0)
    g.add_op("r", OpKind.RECV, cost=3.0)
    assert g.total_cost() == 5.0
    assert g.total_cost([OpKind.RECV]) == 3.0


def test_contains_and_lookup_errors():
    g = Graph()
    g.add_op("a")
    assert "a" in g and 0 in g
    assert "nope" not in g and 5 not in g
    with pytest.raises(GraphError):
        g.op("nope")
