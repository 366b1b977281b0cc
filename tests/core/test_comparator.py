"""TAC's comparator: Eq. 6 semantics, derivation checks, erratum."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RecvProps, precedes, precedes_as_printed

from ..conftest import examples

finite = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)


def props(M, P, M_plus=0.0, index=0):
    return RecvProps(M=M, P=P, M_plus=M_plus, index=index)


def makespan(first, second):
    """Case 1's two-recv makespan: M_f + max{P_f, M_s} + P_s."""
    return first.M + max(first.P, second.M) + second.P


def test_fig1a_decision():
    """recv1 (P=Time(op1)) must precede recv2 (P=0)."""
    recv1 = props(M=1.0, P=1.0)
    recv2 = props(M=1.0, P=0.0, index=1)
    assert precedes(recv1, recv2)
    assert not precedes(recv2, recv1)


def test_printed_comparator_inverts_fig1a():
    """The Algorithm-3-as-printed form makes the opposite (wrong) call —
    the documented erratum."""
    recv1 = props(M=1.0, P=1.0)
    recv2 = props(M=1.0, P=0.0, index=1)
    assert precedes_as_printed(recv2, recv1)
    assert not precedes_as_printed(recv1, recv2)


@given(finite, finite, finite, finite)
@settings(max_examples=examples(200), deadline=None)
def test_eq6_agrees_with_makespan_algebra(ma, pa, mb, pb):
    """Whenever the two orders have different makespans, Eq. 6 picks the
    smaller one (the derivation in §4.3, Case 1)."""
    a, b = props(ma, pa, index=0), props(mb, pb, index=1)
    ab, ba = makespan(a, b), makespan(b, a)
    # tolerance: the two makespans are algebraically tied whenever
    # min{P_B, M_A} == min{P_A, M_B}; float summation order can put them
    # 1 ulp apart, which must not count as a strict preference.
    tol = 1e-9 * max(1.0, abs(ab), abs(ba))
    if ab < ba - tol:
        assert precedes(a, b)
    elif ba < ab - tol:
        assert precedes(b, a)


@given(finite, finite, finite, finite, finite, finite)
@settings(max_examples=examples(200), deadline=None)
def test_antisymmetry(ma, pa, mplusa, mb, pb, mplusb):
    a = props(ma, pa, mplusa, index=0)
    b = props(mb, pb, mplusb, index=1)
    assert precedes(a, b) != precedes(b, a)  # total order, no ties left


def test_tie_broken_by_m_plus():
    a = props(M=1.0, P=0.0, M_plus=2.0, index=0)
    b = props(M=1.0, P=0.0, M_plus=5.0, index=1)
    assert precedes(a, b)
    assert not precedes(b, a)


def test_final_tie_broken_by_index():
    a = props(M=1.0, P=0.0, M_plus=2.0, index=0)
    b = props(M=1.0, P=0.0, M_plus=2.0, index=1)
    assert precedes(a, b)
    assert not precedes(b, a)


positive = st.floats(min_value=0.01, max_value=100.0, allow_nan=False)


def eq6_strict(a: RecvProps, b: RecvProps) -> bool:
    """The strict Eq. 6 preference, without tie-breaking."""
    return min(b.P, a.M) < min(a.P, b.M)


@given(st.lists(st.tuples(positive, finite), min_size=3, max_size=3))
@settings(max_examples=examples(200), deadline=None)
def test_strict_eq6_has_no_cycles_with_positive_transfer_times(triple):
    """The strict Eq. 6 preference is acyclic on the physical domain
    (positive transfer times) — the defensible core of the paper's
    transitivity claim."""
    items = [props(m, p, index=i) for i, (m, p) in enumerate(triple)]
    for a, b, c in itertools.permutations(items, 3):
        assert not (eq6_strict(a, b) and eq6_strict(b, c) and eq6_strict(c, a))


def test_tie_chaining_counterexample_positive_times():
    """Documented boundary of the paper's 'transitive / partial ordering'
    claim: Eq. 6 ties are not an equivalence — a ~ b and b ~ c can coexist
    with c ≺ a, so the tie-broken total relation cycles. TAC is unaffected
    (argmin scan, not sort)."""
    a = props(M=2.0, P=1.0, index=0)
    b = props(M=1.0, P=1.0, index=1)
    c = props(M=1.0, P=2.0, index=2)
    assert not eq6_strict(a, b) and not eq6_strict(b, a)  # tie
    assert not eq6_strict(b, c) and not eq6_strict(c, b)  # tie
    assert eq6_strict(c, a)  # ...yet strictly ordered across the chain
    assert precedes(a, b) and precedes(b, c) and precedes(c, a)


def test_transitivity_counterexample_with_zero_transfer_times():
    """With zero-duration transfers even the strict relation cycles."""
    a = props(M=1.0, P=0.0, index=0)
    b = props(M=0.0, P=0.0, index=1)
    c = props(M=0.0, P=1.0, index=2)
    assert precedes(a, b) and precedes(b, c) and precedes(c, a)


def test_infinite_m_plus_sorts_last_on_ties():
    a = props(M=1.0, P=0.0, M_plus=float("inf"), index=0)
    b = props(M=1.0, P=0.0, M_plus=3.0, index=1)
    assert precedes(b, a)
