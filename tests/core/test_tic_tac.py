"""TIC (Algorithm 2) and TAC (Algorithm 3) behaviour on known DAGs."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import Schedule, dense_ranks, tac, tic, tic_plus
from repro.timing import MappingTimeOracle

from ..conftest import examples, make_worker_graph
from ..strategies import worker_dags


def cost_oracle(g):
    return MappingTimeOracle({op.name: op.cost for op in g})


# ----------------------------------------------------------------------
# TIC
# ----------------------------------------------------------------------
def test_tic_fig4b_prefers_cheap_pair(fig4b):
    """Under TimeGeneral both pairs cost the same number of transfers, so
    TIC groups {A,B} with op1's M+ = 2 and {C,D} with op2's M+ = 2 — a tie
    — but op3 does not tighten further; with equal counts priorities tie."""
    schedule = tic(fig4b)
    p = schedule.priorities
    assert p["recvA"] == p["recvB"]
    assert p["recvC"] == p["recvD"]
    # both pairs activate an op after 2 transfers -> same group under TIC
    assert p["recvA"] == p["recvC"]


def test_tic_orders_layers_first_to_last():
    """In a layered chain, earlier layers' recvs must come first."""
    g = make_worker_graph(
        {
            "recv0": [], "recv1": [], "recv2": [],
            "l0": ["recv0"],
            "l1": ["l0", "recv1"],
            "l2": ["l1", "recv2"],
        }
    )
    schedule = tic(g)
    p = schedule.priorities
    assert p["recv1"] < p["recv2"]
    # recv0's only multi-dep consumer is l1 {recv0, recv1} -> ties recv1
    assert p["recv0"] == p["recv1"]


def test_tic_infinite_m_plus_goes_last():
    g = make_worker_graph(
        {
            "recvA": [], "recvB": [], "recvC": [],
            "join": ["recvA", "recvB"],
            "solo": ["recvC"],  # recvC never shares a consumer
        }
    )
    schedule = tic(g)
    assert schedule.meta["n_infinite_m_plus"] == 1
    assert schedule.priorities["recvC"] > schedule.priorities["recvA"]


def test_dense_ranks_handles_inf_and_ties():
    ranks = dense_ranks(np.array([3.0, 1.0, 3.0, np.inf]))
    assert ranks.tolist() == [1, 0, 1, 2]


def test_tic_priorities_cover_all_recvs(fig4b):
    schedule = tic(fig4b)
    assert set(schedule.priorities) == {op.param for op in fig4b.recv_ops()}


# ----------------------------------------------------------------------
# TAC
# ----------------------------------------------------------------------
def test_tac_fig1a_order(fig1a):
    schedule = tac(fig1a, cost_oracle(fig1a))
    assert schedule.order() == ["recv1", "recv2"]


def test_tac_fig4b_cheap_pair_first(fig4b):
    """§4.3 Case 2: 'obviously, recvA and recvB should precede other
    recvs'."""
    schedule = tac(fig4b, cost_oracle(fig4b))
    order = schedule.order()
    assert set(order[:2]) == {"recvA", "recvB"}
    assert order[2:] == ["recvC", "recvD"]


def test_tac_assigns_distinct_consecutive_priorities(fig4b):
    schedule = tac(fig4b, cost_oracle(fig4b))
    assert sorted(schedule.priorities.values()) == [0, 1, 2, 3]


def test_tac_prioritizes_heavy_compute_branch():
    """Two independent branches: the one unblocking more compute per
    transfer second goes first."""
    g = make_worker_graph(
        {
            "recvH": [], "recvL": [],
            "heavy": ["recvH"],
            "light": ["recvL"],
        },
        costs={"recvH": 1.0, "recvL": 1.0, "heavy": 10.0, "light": 0.5},
    )
    schedule = tac(g, cost_oracle(g))
    assert schedule.order() == ["recvH", "recvL"]


def test_tac_deterministic(fig4b):
    a = tac(fig4b, cost_oracle(fig4b)).priorities
    b = tac(fig4b, cost_oracle(fig4b)).priorities
    assert a == b


@given(worker_dags())
@settings(max_examples=examples(40), deadline=None)
def test_tac_is_a_permutation(g):
    schedule = tac(g, cost_oracle(g))
    n = len(g.recv_ops())
    assert sorted(schedule.priorities.values()) == list(range(n))


@given(worker_dags())
@settings(max_examples=examples(40), deadline=None)
def test_tic_plus_is_a_permutation(g):
    schedule = tic_plus(g)
    n = len(g.recv_ops())
    assert sorted(schedule.priorities.values()) == list(range(n))


def test_tic_plus_orders_solo_recv_by_structure():
    """Unlike single-shot TIC, the iterative variant gives every recv a
    definite rank (no +inf group)."""
    g = make_worker_graph(
        {
            "recvA": [], "recvB": [], "recvC": [],
            "join": ["recvA", "recvB"],
            "solo": ["recvC"],
        }
    )
    schedule = tic_plus(g)
    assert sorted(schedule.priorities.values()) == [0, 1, 2]


def test_tac_requires_oracle_values_for_recvs(fig1a):
    # a zero-time oracle is legal (degenerate) and must still terminate
    schedule = tac(fig1a, MappingTimeOracle({}, default=0.0))
    assert len(schedule.priorities) == 2
