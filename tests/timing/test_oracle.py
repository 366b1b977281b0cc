"""Time oracles: Eq. 5, mapping/perturbed oracles, the min-of-5 estimator."""

import numpy as np
import pytest

from repro.graph import Graph, OpKind
from repro.timing import (
    GeneralTimeOracle,
    MappingTimeOracle,
    PerturbedOracle,
    TimeOracle,
    oracle_from_runs,
)


@pytest.fixture
def ops():
    g = Graph()
    r = g.add_op("r", OpKind.RECV, cost=10.0)
    c = g.add_op("c", OpKind.COMPUTE, cost=5.0)
    a = g.add_op("a", OpKind.AUX)
    return g, r, c, a


def test_general_oracle_is_eq5(ops):
    g, r, c, a = ops
    oracle = GeneralTimeOracle()
    assert oracle(r) == 1.0
    assert oracle(c) == 0.0
    assert oracle(a) == 0.0


def test_general_oracle_vector(ops):
    g, *_ = ops
    assert GeneralTimeOracle().vector(g).tolist() == [1.0, 0.0, 0.0]


def test_mapping_oracle_lookup_and_default(ops):
    g, r, c, a = ops
    oracle = MappingTimeOracle({"r": 3.0}, default=0.5)
    assert oracle(r) == 3.0
    assert oracle(c) == 0.5


def test_mapping_oracle_strict_mode(ops):
    g, r, c, a = ops
    oracle = MappingTimeOracle({"r": 3.0}, strict=True)
    assert oracle(r) == 3.0
    with pytest.raises(KeyError):
        oracle(c)


def test_wrap_accepts_mapping_callable_oracle(ops):
    g, r, *_ = ops
    assert TimeOracle.wrap({"r": 2.0})(r) == 2.0
    assert TimeOracle.wrap(lambda op: 7.0)(r) == 7.0
    base = GeneralTimeOracle()
    assert TimeOracle.wrap(base) is base
    with pytest.raises(TypeError):
        TimeOracle.wrap(42)


def test_perturbed_oracle_is_consistent_per_op(ops):
    g, r, c, a = ops
    base = MappingTimeOracle({"r": 10.0, "c": 5.0})
    noisy = PerturbedOracle(base, sigma=0.5, seed=1)
    assert noisy(r) == noisy(r)  # deterministic per name
    assert noisy(r) > 0


def test_perturbed_oracle_zero_sigma_is_identity(ops):
    g, r, *_ = ops
    base = MappingTimeOracle({"r": 10.0})
    assert PerturbedOracle(base, sigma=0.0)(r) == 10.0


def test_perturbed_oracle_seeds_differ(ops):
    g, r, *_ = ops
    base = MappingTimeOracle({"r": 10.0})
    a = PerturbedOracle(base, sigma=0.5, seed=1)(r)
    b = PerturbedOracle(base, sigma=0.5, seed=2)(r)
    assert a != b


# ----------------------------------------------------------------------
# estimator
# ----------------------------------------------------------------------
def test_oracle_from_runs_min_is_paper_default():
    runs = [{"op": 5.0}, {"op": 3.0}, {"op": 4.0}]
    assert oracle_from_runs(runs).table["op"] == 3.0


def test_oracle_from_runs_handles_partial_coverage():
    runs = [{"a": 1.0}, {"a": 2.0, "b": 7.0}]
    oracle = oracle_from_runs(runs)
    assert oracle.table == {"a": 1.0, "b": 7.0}


def test_oracle_from_runs_rejects_empty():
    with pytest.raises(ValueError, match="at least one"):
        oracle_from_runs([])
