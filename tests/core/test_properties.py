"""Algorithm 1 — reference implementation on the paper's own examples,
and vectorized-vs-reference equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PropertyEngine, update_properties_reference
from repro.timing import GeneralTimeOracle, MappingTimeOracle

from ..conftest import examples, make_worker_graph
from ..strategies import worker_dags


def oracle_from_costs(g):
    return MappingTimeOracle({op.name: op.cost for op in g})


# ----------------------------------------------------------------------
# Reference implementation on the paper's worked examples (§4.1).
# ----------------------------------------------------------------------
def test_fig1a_properties(fig1a):
    """§4.1's running example: op1.M = Time(recv1); op2.M = both;
    recv1.P = Time(op1); recv2.P = 0."""
    recvs = {op.name: op.op_id for op in fig1a.recv_ops()}
    tables = update_properties_reference(
        fig1a, oracle_from_costs(fig1a), recvs.values()
    )
    op1, op2 = fig1a.op("op1").op_id, fig1a.op("op2").op_id
    assert tables.M[op1] == 1.0
    assert tables.M[op2] == 2.0
    assert tables.P[recvs["recv1"]] == 1.0  # Time(op1)
    assert tables.P[recvs["recv2"]] == 0.0  # "no op can execute with recv2 alone"
    # op2 has |dep ∩ R| = 2 -> M+ of both recvs = op2.M = 2
    assert tables.M_plus[recvs["recv1"]] == 2.0
    assert tables.M_plus[recvs["recv2"]] == 2.0


def test_fig1a_after_recv1_completes(fig1a):
    """Removing recv1 from R: op2 now has a single outstanding dep, so
    recv2 collects op2's compute time in P."""
    recvs = {op.name: op.op_id for op in fig1a.recv_ops()}
    tables = update_properties_reference(
        fig1a, oracle_from_costs(fig1a), [recvs["recv2"]]
    )
    assert tables.P[recvs["recv2"]] == 1.0  # Time(op2)
    assert recvs["recv1"] not in tables.P
    assert tables.M[fig1a.op("op2").op_id] == 1.0
    assert tables.M_plus[recvs["recv2"]] == np.inf


def test_fig4b_m_plus_prefers_cheap_pair(fig4b):
    """Case 2: recvA.M+ = recvB.M+ = Time(A)+Time(B), strictly below the
    C/D pair's M+ (the paper's tie-break rationale)."""
    recvs = {op.name: op.op_id for op in fig4b.recv_ops()}
    tables = update_properties_reference(
        fig4b, oracle_from_costs(fig4b), recvs.values()
    )
    ab = tables.M_plus[recvs["recvA"]]
    assert ab == tables.M_plus[recvs["recvB"]] == 2.0
    cd = tables.M_plus[recvs["recvC"]]
    assert cd == tables.M_plus[recvs["recvD"]] == 8.0
    assert ab < cd
    # all P are 0 while everything is outstanding
    assert all(v == 0.0 for v in tables.P.values())


def test_completed_recvs_do_not_count_in_m():
    g = make_worker_graph(
        {"recv1": [], "recv2": [], "op": ["recv1", "recv2"]},
        costs={"recv1": 5.0, "recv2": 7.0},
    )
    r2 = g.op("recv2").op_id
    tables = update_properties_reference(g, oracle_from_costs(g), [r2])
    assert tables.M[g.op("op").op_id] == 7.0  # only the outstanding one


def test_outstanding_must_be_recvs(fig1a):
    with pytest.raises(ValueError, match="non-recv"):
        update_properties_reference(
            fig1a, oracle_from_costs(fig1a), [fig1a.op("op1").op_id]
        )


def test_general_oracle_counts_recvs(fig4b):
    """Under TimeGeneral (Eq. 5), M equals the number of outstanding
    recv dependencies."""
    recv_ids = [op.op_id for op in fig4b.recv_ops()]
    tables = update_properties_reference(fig4b, GeneralTimeOracle(), recv_ids)
    op3 = fig4b.op("op3").op_id
    assert tables.M[op3] == 4.0


# ----------------------------------------------------------------------
# Vectorized engine == reference.
# ----------------------------------------------------------------------
def assert_engines_agree(g, outstanding_ids):
    oracle = oracle_from_costs(g)
    ref = update_properties_reference(g, oracle, outstanding_ids)
    engine = PropertyEngine(g, oracle)
    mask = np.zeros(engine.n_recv, dtype=bool)
    for op_id in outstanding_ids:
        mask[engine.recv_index_of(op_id)] = True
    snap = engine.update(mask)
    for op in g:
        assert snap.M[op.op_id] == pytest.approx(ref.M[op.op_id])
    for k, recv in enumerate(engine.recv_ops):
        if mask[k]:
            assert snap.P[k] == pytest.approx(ref.P[recv.op_id])
            if np.isinf(ref.M_plus[recv.op_id]):
                assert np.isinf(snap.M_plus[k])
            else:
                assert snap.M_plus[k] == pytest.approx(ref.M_plus[recv.op_id])


def test_vectorized_matches_reference_fig4b(fig4b):
    assert_engines_agree(fig4b, [op.op_id for op in fig4b.recv_ops()])


@given(worker_dags(), st.randoms(use_true_random=False))
@settings(max_examples=examples(60), deadline=None)
def test_vectorized_matches_reference_random(g, rnd):
    recvs = [op.op_id for op in g.recv_ops()]
    outstanding = [r for r in recvs if rnd.random() < 0.7]
    assert_engines_agree(g, outstanding)


def test_empty_outstanding_mask(fig1a):
    engine = PropertyEngine(fig1a, oracle_from_costs(fig1a))
    snap = engine.update(np.zeros(engine.n_recv, dtype=bool))
    assert not snap.M.any()
    assert np.isinf(snap.M_plus).all()


def test_full_snapshot_equals_all_outstanding(fig4a):
    engine = PropertyEngine(fig4a, oracle_from_costs(fig4a))
    full = engine.full_snapshot()
    manual = engine.update(np.ones(engine.n_recv, dtype=bool))
    assert np.array_equal(full.P, manual.P)
    assert np.array_equal(full.M_plus, manual.M_plus)


def test_bad_mask_shape_rejected(fig1a):
    engine = PropertyEngine(fig1a, oracle_from_costs(fig1a))
    with pytest.raises(ValueError, match="shape"):
        engine.update(np.ones(5, dtype=bool))


def test_negative_oracle_rejected(fig1a):
    with pytest.raises(ValueError, match="negative"):
        PropertyEngine(fig1a, MappingTimeOracle({"recv1": -1.0}))


def test_recv_index_of_rejects_compute(fig1a):
    engine = PropertyEngine(fig1a, oracle_from_costs(fig1a))
    with pytest.raises(KeyError):
        engine.recv_index_of("op1")
