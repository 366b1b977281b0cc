"""Shared fixtures: the paper's toy DAGs and a fast miniature model, and
the hypothesis profiles.

Tier-1 runs the ``tier1`` profile: every ``@given`` test draws the same
examples on every run (``derandomize``, no example database), so the
suite is a deterministic function of the tree. The ``explore`` profile
(``pytest --hypothesis-profile=explore``) draws fresh random examples,
``EXPLORE_FACTOR`` times as many per test; turn what it finds into a
pinned ``@example``.
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.graph import Graph, OpKind, Resource
from repro.models.builder import NetBuilder

WORKER = "worker:0"
PS = "ps:0"

#: hypothesis's own default ``max_examples``, which ``tier1`` keeps.
TIER1_EXAMPLES = 100
EXPLORE_FACTOR = 5

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile(
    "explore", max_examples=TIER1_EXAMPLES * EXPLORE_FACTOR
)
settings.load_profile("tier1")


def examples(n: int) -> int:
    """A ``@given`` test's example count: ``n`` under ``tier1``, scaled by
    the loaded profile's ``max_examples`` (``EXPLORE_FACTOR`` times ``n``
    under ``explore``). Pass it as ``@settings(max_examples=examples(n))``,
    which a profile cannot override by itself."""
    return n * settings.default.max_examples // TIER1_EXAMPLES


def make_worker_graph(edges, costs=None, params=None):
    """Build a single-worker partitioned toy graph.

    ``edges`` maps op name -> list of input names; names starting with
    'recv' become RECV ops on the PS->worker link, others COMPUTE ops.
    ``costs`` maps name -> cost (default 1.0).
    """
    costs = costs or {}
    g = Graph("toy")
    link = Resource.link(PS, WORKER)
    compute = Resource.compute(WORKER)
    for name, inputs in edges.items():
        is_recv = name.startswith("recv")
        g.add_op(
            name,
            OpKind.RECV if is_recv else OpKind.COMPUTE,
            inputs,
            cost=float(costs.get(name, 1.0)),
            param=name if is_recv else None,
            resource=link if is_recv else compute,
            device=WORKER,
            timing_key=name,
        )
    return g


@pytest.fixture
def fig1a():
    """Figure 1a: recv1 -> op1; op2 needs op1 AND recv2."""
    return make_worker_graph(
        {
            "recv1": [],
            "recv2": [],
            "op1": ["recv1"],
            "op2": ["op1", "recv2"],
        }
    )


@pytest.fixture
def fig4a():
    """Figure 4a (Case 1): recvA -> op1 -> op3; recvB -> op2 -> op3."""
    return make_worker_graph(
        {
            "recvA": [],
            "recvB": [],
            "op1": ["recvA"],
            "op2": ["recvB"],
            "op3": ["op1", "op2"],
        }
    )


@pytest.fixture
def fig4b():
    """Figure 4b (Case 2): all recvs outstanding, P = 0 everywhere.

    op1 needs {A, B}; op2 needs {C, D} with C, D costlier; op3 joins.
    M+ should prefer the cheap {A, B} pair.
    """
    return make_worker_graph(
        {
            "recvA": [],
            "recvB": [],
            "recvC": [],
            "recvD": [],
            "op1": ["recvA", "recvB"],
            "op2": ["recvC", "recvD"],
            "op3": ["op1", "op2"],
        },
        costs={"recvC": 3.0, "recvD": 5.0},
    )


def tiny_model(batch_size: int = 8):
    """A miniature 3-conv + fc model: fast to emit, schedule and simulate."""
    b = NetBuilder("tinynet", batch_size, input_hw=(32, 32))
    b.conv("conv1", 3, 8, bias=True, bn=False)
    b.max_pool("pool1", 2, 2)
    b.conv("conv2", 3, 16)
    b.conv("conv3", 3, 16)
    b.fc("logits", 10)
    b.softmax("predictions")
    return b.build()


@pytest.fixture
def tinynet():
    return tiny_model()
