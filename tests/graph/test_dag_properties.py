"""Property-based structural invariants on random worker DAGs."""

from hypothesis import given, settings

from repro.graph import (
    PartitionedGraph,
    critical_path_cost,
    dependency_matrix,
    dependency_sets,
)

from ..conftest import examples
from ..strategies import worker_dags


@given(worker_dags())
@settings(max_examples=examples(60), deadline=None)
def test_dependency_sets_monotone_along_edges(g):
    """An op's dep set contains every predecessor's dep set (transitivity)."""
    deps = dependency_sets(g)
    for op in g:
        for p in g.pred_ids(op.op_id):
            assert deps[p] <= deps[op.op_id]


@given(worker_dags())
@settings(max_examples=examples(60), deadline=None)
def test_recv_dep_sets_are_self_singletons(g):
    deps = dependency_sets(g)
    for op in g.recv_ops():
        assert deps[op.op_id] == {op.op_id}


@given(worker_dags())
@settings(max_examples=examples(60), deadline=None)
def test_matrix_row_sums_match_set_sizes(g):
    mat = dependency_matrix(g)
    deps = dependency_sets(g)
    for op in g:
        assert mat[op.op_id].sum() == len(deps[op.op_id])


@given(worker_dags())
@settings(max_examples=examples(60), deadline=None)
def test_critical_path_between_bounds(g):
    """max op cost <= critical path <= total cost (Eq. 1's U)."""
    cp = critical_path_cost(g)
    total = g.total_cost()
    biggest = max(op.cost for op in g)
    assert biggest - 1e-9 <= cp <= total + 1e-9


@given(worker_dags())
@settings(max_examples=examples(60), deadline=None)
def test_partition_load_sums_to_total_cost(g):
    loads = PartitionedGraph(g).load()
    assert abs(sum(loads.values()) - g.total_cost()) < 1e-9
