"""Paper-stated invariants of the Algorithm-1 properties, as properties."""

import numpy as np
from hypothesis import given, settings

from repro.core import PropertyEngine
from repro.timing import MappingTimeOracle

from ..conftest import examples
from ..strategies import worker_dags


def oracle(g):
    return MappingTimeOracle({op.name: op.cost for op in g})


@given(worker_dags())
@settings(max_examples=examples(60), deadline=None)
def test_m_plus_includes_own_transfer_time(g):
    """§4.1: 'recvOp.M+ includes the communication time of that recvOp' —
    so any finite M+ is at least the recv's own time."""
    engine = PropertyEngine(g, oracle(g))
    snap = engine.full_snapshot()
    for k in range(engine.n_recv):
        if np.isfinite(snap.M_plus[k]):
            assert snap.M_plus[k] >= snap.recv_time[k] - 1e-9


@given(worker_dags())
@settings(max_examples=examples(60), deadline=None)
def test_m_is_monotone_in_outstanding_set(g):
    """Shrinking R can only decrease every op's outstanding transfer time."""
    engine = PropertyEngine(g, oracle(g))
    full = engine.update(np.ones(engine.n_recv, dtype=bool))
    half_mask = np.ones(engine.n_recv, dtype=bool)
    half_mask[:: 2] = False
    half = engine.update(half_mask)
    assert np.all(half.M <= full.M + 1e-9)


@given(worker_dags())
@settings(max_examples=examples(60), deadline=None)
def test_p_total_bounded_by_compute_total(g):
    """ΣP over outstanding recvs never exceeds total compute time: each
    op's time is credited to at most one recv (its unique blocker)."""
    engine = PropertyEngine(g, oracle(g))
    snap = engine.full_snapshot()
    total_compute = sum(op.cost for op in g if not op.is_recv)
    assert snap.P.sum() <= total_compute + 1e-6


@given(worker_dags())
@settings(max_examples=examples(60), deadline=None)
def test_m_of_op_bounded_by_total_transfer_time(g):
    engine = PropertyEngine(g, oracle(g))
    snap = engine.full_snapshot()
    assert np.all(snap.M <= snap.recv_time.sum() + 1e-9)


@given(worker_dags())
@settings(max_examples=examples(60), deadline=None)
def test_retiring_recvs_moves_their_p_elsewhere(g):
    """After removing a recv from R, the compute it used to gate either
    activates or re-attaches to other recvs — P values remain finite and
    non-negative throughout the TAC loop."""
    engine = PropertyEngine(g, oracle(g))
    mask = np.ones(engine.n_recv, dtype=bool)
    order = list(range(engine.n_recv))
    for k in order:
        snap = engine.update(mask)
        assert np.all(snap.P[mask] >= 0)
        assert np.all(np.isfinite(snap.P[mask]))
        mask[k] = False
