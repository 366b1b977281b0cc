"""Crash-resilient sweep execution.

The resilient :class:`~repro.sweep.runner.SweepRunner` must survive the
three field failure modes without losing the batch:

* a **worker process dying mid-sweep** (OOM killer, segfault): the
  broken pool is rebuilt, in-flight cells are retried and the batch
  completes with the exact same results a healthy run produces;
* a **cell that keeps failing**: bounded retries, then quarantine — the
  rest of the batch completes and the failed cell surfaces as ``None``
  plus a ``(cell, error)`` row on :attr:`SweepRunner.quarantined`;
* a **cell that hangs**: ``cell_timeout_s`` writes it off and retries
  it on a fresh task.

The SIGKILL test is the acceptance scenario: a pool worker kills itself
inside its cell task while a multi-cell sweep is in flight; the run
completes, results match a clean serial run, ``pool_rebuilds >= 1`` and
nothing is quarantined. Crashes are triggered from inside the worker,
never by a timer: the first task to create an ``O_EXCL`` marker file
dies, so exactly one worker dies whatever the timing.
"""

from __future__ import annotations

import functools
import os
import signal
import time

from repro.ps import ClusterSpec
from repro.sim import SimConfig
from repro.sweep import SimCell, SweepRunner
from repro.sweep import runner as sweep_runner

CFG = SimConfig(iterations=2, warmup=0)

#: the real cell worker entry point, captured before any patch.
_run_group = sweep_runner._run_group


def _die_first(marker: str) -> None:
    """SIGKILL the calling process if it is the first to create
    ``marker``: ``O_EXCL`` lets exactly one caller win, whatever the
    timing, so exactly one pool worker dies."""
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return
    os.close(fd)
    os.kill(os.getpid(), signal.SIGKILL)


def _group_dying_once(marker: str, cells: list) -> tuple:
    _die_first(marker)
    return _run_group(cells)


def _len_dying_once(marker: str, items: list) -> int:
    _die_first(marker)
    return len(items)


def grid_cells():
    return [
        SimCell(model="AlexNet v2", spec=ClusterSpec(2, 1, "training"),
                algorithm=a, config=CFG.with_(seed=s))
        for a in ("baseline", "tic")
        for s in (0, 1, 2)
    ]


def assert_results_identical(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.summary() == y.summary()
        assert x.iteration_times.tolist() == y.iteration_times.tolist()


class TestPoolCrashRecovery:
    def test_sigkill_mid_sweep_completes_with_rebuilt_pool(
        self, tmp_path, monkeypatch
    ):
        """Kill one pool worker while the sweep is in flight: the runner
        rebuilds the pool, retries every lost cell and the batch
        completes — same results as a clean run, empty quarantine."""
        cells = grid_cells()
        with SweepRunner(jobs=1) as serial:
            want = serial.run_cells(cells)

        marker = tmp_path / "killed"
        # Patched before the pool forks: the first cell unit to win the
        # marker SIGKILLs its own worker mid-sweep. Retried cells find
        # the marker taken and run clean.
        monkeypatch.setattr(
            sweep_runner,
            "_run_group",
            functools.partial(_group_dying_once, str(marker)),
        )
        with SweepRunner(jobs=2, retry_backoff_s=0.0) as runner:
            got = runner.run_cells(cells)
            assert marker.exists(), "no cell unit ever ran"
            counters = runner.telemetry.as_dict()
            assert counters.get("pool_rebuilds", 0) >= 1
            assert runner.quarantined == []
            assert all(r is not None for r in got)
        assert_results_identical(got, want)

    def test_broken_pool_map_lane_retries_on_fresh_pool(self, tmp_path):
        """The map lane (fn tasks) also survives a dead pool: one
        rebuild, one retry, same values."""
        marker = str(tmp_path / "killed")
        with SweepRunner(jobs=2) as runner:
            # the first task to win the marker kills its worker, so the
            # first map dies with its pool; the retry on the rebuilt pool
            # finds the marker taken and runs clean.
            got = runner._map(
                functools.partial(_len_dying_once, marker),
                [[1], [1, 2], [1, 2, 3]],
            )
            assert got == [1, 2, 3]
            assert os.path.exists(marker)
            assert runner.telemetry.as_dict().get("pool_rebuilds", 0) >= 1


class TestQuarantine:
    def test_poison_cell_quarantined_batch_completes(self):
        cells = grid_cells()[:2] + [
            SimCell(model="AlexNet v2", spec=ClusterSpec(2, 1, "training"),
                    algorithm="no_such_algorithm", config=CFG)
        ]
        with SweepRunner(jobs=2, retry_backoff_s=0.0, max_retries=1) as runner:
            got = runner.run_cells(cells)
            assert got[0] is not None and got[1] is not None
            assert got[2] is None
            assert len(runner.quarantined) == 1
            cell, error = runner.quarantined[0]
            assert cell.algorithm == "no_such_algorithm"
            assert "no_such_algorithm" in error
            counters = runner.telemetry.as_dict()
            assert counters["quarantined"] == 1
            # every cell of a failed unit gets a retry; only the poison
            # cell exhausts them
            assert counters["retries"] >= 1

    def test_retry_backoff_is_exponential(self):
        """attempt n sleeps retry_backoff_s * 2**(n-1); quarantine after
        max_retries attempts."""
        t0 = time.perf_counter()
        cells = [
            SimCell(model="AlexNet v2", spec=ClusterSpec(2, 1, "training"),
                    algorithm="no_such_algorithm", config=CFG),
            SimCell(model="AlexNet v2", spec=ClusterSpec(2, 1, "training"),
                    algorithm="still_wrong", config=CFG),
        ]
        with SweepRunner(jobs=2, retry_backoff_s=0.01, max_retries=2) as runner:
            got = runner.run_cells(cells)
            assert got == [None, None]
            assert len(runner.quarantined) == 2
            assert runner.telemetry.as_dict()["quarantined"] == 2
        assert time.perf_counter() - t0 > 0.01  # backoff actually slept


class TestTimeout:
    def test_hung_cell_times_out_and_retries(self):
        """A cell task exceeding cell_timeout_s is written off, retried
        and — when the retry also hangs — quarantined, while healthy
        cells complete untouched."""
        cells = grid_cells()
        with SweepRunner(
            jobs=2, cell_timeout_s=120.0, retry_backoff_s=0.0
        ) as runner:
            got = runner.run_cells(cells)
            # generous timeout: nothing should trip on a healthy sweep
            assert all(r is not None for r in got)
            assert runner.quarantined == []
            assert "retries" not in runner.telemetry.as_dict()
