"""Admission policies: fifo vs backfill semantics + registry errors."""

from __future__ import annotations

import pytest

from repro.replay.admission import (
    ADMISSIONS,
    AdmissionPolicy,
    UnknownAdmissionError,
    register_admission,
)


class TestRegistry:
    def test_builtins(self):
        assert {"fifo", "backfill"} <= set(ADMISSIONS)

    def test_unknown_name_suggests(self):
        with pytest.raises(UnknownAdmissionError, match="did you mean 'fifo'"):
            ADMISSIONS["fifi"]

    def test_register_custom(self):
        policy = AdmissionPolicy("_test_none", "admits nothing", lambda s, f: [])
        register_admission(policy)
        try:
            assert ADMISSIONS["_test_none"] is policy
        finally:
            del ADMISSIONS["_test_none"]


class TestFifo:
    def test_prefix_admitted(self):
        fifo = ADMISSIONS["fifo"].fn
        assert fifo([3, 3, 3], 16) == [0, 1, 2]
        assert fifo([3, 3, 3], 7) == [0, 1]

    def test_head_of_line_blocking(self):
        fifo = ADMISSIONS["fifo"].fn
        # the 5-slot head does not fit -> nothing behind it may pass
        assert fifo([5, 3, 3], 4) == []

    def test_empty_queue(self):
        assert ADMISSIONS["fifo"].fn([], 16) == []


class TestBackfill:
    def test_slips_around_blocked_head(self):
        backfill = ADMISSIONS["backfill"].fn
        assert backfill([5, 3, 3], 4) == [1]
        assert backfill([5, 3, 3], 7) == [0]
        assert backfill([5, 3, 3], 8) == [0, 1]
        assert backfill([5, 3, 2], 4) == [1]  # first fit, not best fit

    def test_fifo_when_everything_fits(self):
        backfill = ADMISSIONS["backfill"].fn
        assert backfill([3, 3, 3], 16) == [0, 1, 2]

    def test_respects_capacity(self):
        backfill = ADMISSIONS["backfill"].fn
        picks = backfill([4, 4, 4, 4], 9)
        assert sum(4 for _ in picks) <= 9
