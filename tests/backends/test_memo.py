"""The one in-process memo type and what the backends key it on."""

from __future__ import annotations

import pytest

from repro.api import Context, Scale, execute_scenario
from repro.backends import GRAPH_MEMO, MEMO_COUNTERS, WIZARD_MEMO, Memo
from repro.sim import JobMixSpec


@pytest.fixture(autouse=True)
def _drop_test_counters():
    """Memos made here leave no counters in the process-wide dict."""
    before = set(MEMO_COUNTERS)
    yield
    for name in set(MEMO_COUNTERS) - before:
        del MEMO_COUNTERS[name]


def _counts(name: str) -> tuple[int, int]:
    return MEMO_COUNTERS[f"{name}_memo_hits"], MEMO_COUNTERS[f"{name}_memo_misses"]


def test_memo_builds_once_and_counts():
    memo = Memo("test_counts", 4)
    assert _counts("test_counts") == (0, 0)
    built = []

    def build():
        built.append(1)
        return object()

    first = memo.get("a", build)
    assert memo.get("a", build) is first
    assert len(built) == 1
    assert _counts("test_counts") == (1, 1)
    memo.get("b", build)
    assert _counts("test_counts") == (1, 2)


def test_memo_evicts_least_recently_used():
    memo = Memo("test_lru", 3)
    for key in "abc":
        memo.get(key, lambda k=key: k.upper())
    assert memo.keys() == ["a", "b", "c"]
    memo.get("a", lambda: "unused")  # a hit refreshes "a"
    assert memo.keys() == ["b", "c", "a"]
    memo.get("d", lambda: "D")  # evicts "b", the least recently used
    assert memo.keys() == ["c", "a", "d"]
    assert memo.get("a", lambda: "rebuilt") == "A"


def test_memo_cap_bounds_its_size():
    memo = Memo("test_cap", 2)
    for i in range(10):
        memo.get(i, lambda i=i: i)
        assert len(memo) <= memo.cap
    assert memo.keys() == [8, 9]


def test_memo_clear_keeps_counters():
    memo = Memo("test_clear", 2)
    memo.get("a", lambda: 1)
    memo.get("a", lambda: 2)
    memo.clear()
    assert len(memo) == 0 and memo.keys() == []
    assert memo.get("a", lambda: 3) == 3  # rebuilt after clear
    assert _counts("test_clear") == (1, 2)


MICRO = Scale(
    name="micro",
    models=("AlexNet v2",),
    worker_counts=(2,),
    ps_counts=(1,),
    iterations=2,
    warmup=1,
    consistency_runs=12,
    loss_iterations=20,
)


def test_no_memo_holds_a_whole_mix(tmp_path):
    """A mix is composed from per-job entries, never memoized whole."""
    GRAPH_MEMO.clear()
    WIZARD_MEMO.clear()
    ctx = Context(
        scale=MICRO, results_dir=str(tmp_path), use_cache=False, verbose=False
    )
    with ctx:
        execute_scenario(ctx, "jobmix_starvation")
    assert len(GRAPH_MEMO) and len(WIZARD_MEMO)
    for key in GRAPH_MEMO.keys() + WIZARD_MEMO.keys():
        assert not any(isinstance(part, JobMixSpec) for part in key)
    GRAPH_MEMO.clear()
    WIZARD_MEMO.clear()
