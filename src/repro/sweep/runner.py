"""The sweep runner: parallel, cached execution of evaluation grids.

Execution pipeline for a batch of :class:`~repro.sweep.spec.SimCell`:

1. **Dedupe** — identical cells (drivers overlap heavily; e.g. Fig. 7 and
   the headline scan share their whole grid, and every speedup pair wants
   the same baseline cell) collapse to one simulation.
2. **Cache probe** — each unique cell's key (config + code fingerprint)
   is looked up in the on-disk JSON cache; hits skip simulation entirely.
3. **Group** — misses are grouped by (model, batch factor, cluster spec,
   platform); each group compiles its model IR and cluster graph once and
   runs all member cells against it (:func:`simulate_cell_group`).
4. **Run units** — each group is one task unit. When a batch has fewer
   groups than workers, each group is split into ``ceil(jobs / groups)``
   contiguous chunks so the pool is not left idle. Every unit runs
   :func:`_run_group`: in-process when ``jobs <= 1``, otherwise streamed
   onto a **persistent** ``ProcessPoolExecutor`` that lives for the whole
   runner (one pool spawn per run, not one per grid). A unit that raises,
   times out or is lost to a pool crash is retried cell by cell and, past
   ``max_retries``, quarantined (see :meth:`SweepRunner.run_cells`).
   Cells are independent and the engine seeds from
   ``(config.seed, iteration)``, so serial, grouped and chunked execution
   produce bitwise-identical results.
5. **Round-trip** — every fresh result passes through the JSON
   serialization (lossless for IEEE doubles) before being returned and
   cached, so the first run and every cached re-run yield the exact same
   numbers.

:class:`FnTask` batches follow the same dedupe/cache/fan-out path, minus
the grouping.
"""

from __future__ import annotations

import atexit
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

from ..obs.telemetry import Telemetry
from ..sim.metrics import SimulationResult
from ..sim.runner import simulate_cell_group, throughput_gain_pct
from .cache import CacheStats, ResultCache, cache_key
from .serialize import result_from_dict, result_to_dict
from .spec import FnTask, SimCell


def _run_group(cells: Sequence[SimCell]) -> tuple:
    """Worker entry point for cells: simulate one unit — cells of one
    compile-once group (module-level so process pools can pickle it).
    Every result comes back as its serialized dict. Returns
    ``(elapsed_s, payloads)`` so the runner's telemetry sees worker-side
    wall time."""
    t0 = time.perf_counter()
    first = cells[0]
    variants = [(c.algorithm, c.config) for c in cells]
    results = simulate_cell_group(
        first.model,
        first.spec,
        variants,
        platform=first.platform,
        batch_factor=first.batch_factor,
    )
    payloads = [result_to_dict(r) for r in results]
    return time.perf_counter() - t0, payloads


def _balanced_chunks(seq: list, n_chunks: int) -> list[list]:
    """Split ``seq`` into at most ``n_chunks`` contiguous, size-balanced
    (difference <= 1) non-empty chunks, preserving order."""
    n_chunks = max(1, min(n_chunks, len(seq)))
    size, extra = divmod(len(seq), n_chunks)
    chunks = []
    i = 0
    for j in range(n_chunks):
        step = size + (1 if j < extra else 0)
        chunks.append(seq[i:i + step])
        i += step
    return chunks


def _run_task(task: FnTask) -> object:
    """Worker entry point for function tasks."""
    return task.resolve()(**dict(task.kwargs))


class Speedup(NamedTuple):
    """One scheduled-vs-baseline comparison (Fig. 7/9/10/13's unit)."""

    gain_pct: float
    sched: SimulationResult
    base: SimulationResult


@dataclass
class SweepRunner:
    """Executes cell and task batches with caching and parallelism.

    ``jobs`` caps worker processes (<=1 means in-process serial).
    ``cache_dir=None`` disables the on-disk cache; ``rerun`` recomputes
    every unit and refreshes its cache entry.

    The worker pool is persistent: it is spawned on first use and reused
    by every subsequent ``run_cells``/``run_tasks`` call until
    :meth:`close` (usable as a context manager; ``atexit`` covers runs
    that never close explicitly).
    """

    jobs: int = 1
    cache_dir: Optional[str] = None
    rerun: bool = False
    #: resilience knobs: a cell unit that raises, times out or is lost
    #: to a worker-pool crash is retried cell by cell up to
    #: ``max_retries`` times (exponential backoff
    #: ``retry_backoff_s * 2**(attempt-1)``) before the cell is
    #: quarantined. A dead pool (``BrokenProcessPool`` — a worker was
    #: OOM-killed or segfaulted) is rebuilt transparently.
    max_retries: int = 2
    retry_backoff_s: float = 0.05
    #: wall-time bound of one pooled unit (``None`` = unbounded). Pool
    #: only: an in-process unit (``jobs <= 1``) cannot be interrupted.
    cell_timeout_s: Optional[float] = None
    #: cells that exhausted their retries, as ``(cell, error)`` pairs —
    #: the batch completes with partial results instead of raising
    #: (``run_cells`` returns ``None`` at their positions).
    quarantined: list = field(init=False, default_factory=list, repr=False)
    stats: CacheStats = field(init=False)
    #: run-level counters (see :mod:`repro.obs.telemetry`): cells
    #: requested/deduped/cached/simulated, units run, retries, worker
    #: wall time. Always on — surfaced per scenario as
    #: ``ResultSet.telemetry``.
    telemetry: Telemetry = field(init=False)
    _cache: Optional[ResultCache] = field(init=False, default=None, repr=False)
    _pool: Optional[ProcessPoolExecutor] = field(init=False, default=None, repr=False)

    def __post_init__(self) -> None:
        if self.cache_dir:
            self._cache = ResultCache(os.fspath(self.cache_dir))
            self.stats = self._cache.stats
        else:
            self.stats = CacheStats()
        self.telemetry = Telemetry()

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Shut the worker pool down. Idempotent; runs from ``with``
        exits, ``__del__`` and ``atexit``."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
        atexit.unregister(self.close)

    def __enter__(self) -> "SweepRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter-dependent
        try:
            self.close()
        except Exception:
            pass

    # -- cells ----------------------------------------------------------
    def run_cells(self, cells: Sequence[SimCell]) -> list[SimulationResult]:
        """Simulate a batch of cells; returns results in input order.

        Cells that exhausted their retries (see :attr:`quarantined`)
        come back as ``None`` — the rest of the batch still completes.
        """
        tm = self.telemetry
        tm.add("run_cells_calls")
        with tm.timer("run_cells_wall_s"):
            order: dict[SimCell, None] = dict.fromkeys(cells)
            tm.add("cells_requested", len(cells))
            tm.add("cells_deduped", len(cells) - len(order))
            resolved: dict[SimCell, SimulationResult] = {}
            keys: dict[SimCell, str] = {}

            pending: list[SimCell] = []
            for cell in order:
                payload = None
                if self._cache is not None:
                    keys[cell] = cache_key(cell.cache_key_material())
                    if not self.rerun:
                        payload = self._cache.get(keys[cell])
                if payload is not None:
                    try:
                        resolved[cell] = result_from_dict(payload)
                        tm.add("cells_cached")
                        continue
                    except (KeyError, ValueError):
                        self._cache.note_invalid()  # stale/foreign: recompute
                pending.append(cell)
            tm.add("cells_simulated", len(pending))

            groups: dict[tuple, list[SimCell]] = {}
            for cell in pending:
                groups.setdefault(cell.group_key, []).append(cell)
            units = list(groups.values())
            if units and len(units) < self.jobs:
                # fewer groups than workers: split each group so the
                # whole pool has work.
                per_group = -(-self.jobs // len(units))
                units = [
                    chunk
                    for unit in units
                    for chunk in _balanced_chunks(unit, per_group)
                ]
            self._run_units(units, resolved, keys)
        return [resolved.get(cell) for cell in cells]

    def _run_units(self, units, resolved, keys) -> None:
        """Run cell units to completion, retrying and quarantining.

        Units run in rounds. A cell of a lost unit — one that raised,
        exceeded ``cell_timeout_s`` or was in flight when the pool
        crashed — is retried as its own one-cell unit in the next round,
        after an exponential backoff, until it has used ``max_retries``
        attempts; then it is quarantined. The batch always completes
        without raising.
        """
        tm = self.telemetry
        attempts: dict[SimCell, int] = {}

        def collect(unit, value) -> None:
            elapsed, payloads = value
            tm.add("sim_wall_s", elapsed)
            tm.peak("cell_wall_max_s", elapsed)
            for cell, payload in zip(unit, payloads):
                self._store(cell, payload, resolved, keys)

        run_round = self._run_inline if self.jobs <= 1 else self._run_pooled
        while units:
            tm.add("groups_run", len(units))
            retry: list[SimCell] = []
            for unit, err in run_round(units, collect):
                for cell in unit:
                    n = attempts.get(cell, 0) + 1
                    if n > self.max_retries:
                        tm.add("quarantined")
                        self.quarantined.append(
                            (cell, f"{type(err).__name__}: {err}")
                        )
                        continue
                    attempts[cell] = n
                    tm.add("retries")
                    retry.append(cell)
            if retry:
                delay = self.retry_backoff_s * (
                    2 ** (max(attempts[c] for c in retry) - 1)
                )
                if delay > 0:
                    time.sleep(delay)
            units = [[cell] for cell in retry]

    def _run_inline(self, units, collect: Callable) -> list:
        """One round in this process; returns the lost ``(unit, error)``
        pairs."""
        lost = []
        for unit in units:
            try:
                value = _run_group(unit)
            except Exception as err:
                lost.append((unit, err))
                continue
            collect(unit, value)
        return lost

    def _run_pooled(self, units, collect: Callable) -> list:
        """One round on the pool, collecting units as they finish;
        returns the lost ``(unit, error)`` pairs. A dead pool loses
        every unit in flight and is rebuilt for the next round."""
        pool = self._get_pool()
        pending = {pool.submit(_run_group, unit): unit for unit in units}
        deadlines = {}
        if self.cell_timeout_s is not None:
            deadline = time.monotonic() + self.cell_timeout_s
            deadlines = dict.fromkeys(pending, deadline)
        lost = []
        while pending:
            timeout = None
            if deadlines:
                timeout = max(0.0, min(deadlines.values()) - time.monotonic())
            done, _ = wait(pending, timeout=timeout, return_when=FIRST_COMPLETED)
            now = time.monotonic()
            for fut in [f for f, dl in deadlines.items() if dl <= now]:
                if fut in done:
                    continue
                deadlines.pop(fut)
                # cancel() frees the slot if the task never started; a
                # running worker keeps burning but its eventual result
                # is discarded (the future is untracked now).
                fut.cancel()
                lost.append((
                    pending.pop(fut),
                    TimeoutError(f"cell task exceeded {self.cell_timeout_s}s"),
                ))
            for fut in done:
                unit = pending.pop(fut, None)
                if unit is None:
                    continue  # already written off by a pool rebuild
                deadlines.pop(fut, None)
                try:
                    value = fut.result()
                except BrokenProcessPool as err:
                    # the pool is dead: every in-flight future is lost.
                    self.telemetry.add("pool_rebuilds")
                    lost += [(u, err) for u in [unit, *pending.values()]]
                    pending.clear()
                    deadlines.clear()
                    self._rebuild_pool()
                    continue
                except Exception as err:
                    lost.append((unit, err))
                    continue
                collect(unit, value)
        return lost

    def _store(self, cell, payload, resolved, keys) -> None:
        resolved[cell] = result_from_dict(payload)
        if self._cache is not None:
            self._cache.put(keys[cell], payload)

    def run_speedups(self, cells: Sequence[SimCell]) -> list[Speedup]:
        """For each scheduled cell, also run its baseline twin and report
        the throughput gain — the batched form of
        :func:`~repro.sim.runner.speedup_vs_baseline` (identical numbers:
        same shared cluster graph, same pairing, same gain formula)."""
        flat: list[SimCell] = []
        for cell in cells:
            flat.append(cell.with_(algorithm="baseline"))
            flat.append(cell)
        results = self.run_cells(flat)
        return [
            Speedup(
                throughput_gain_pct(sched, base)
                if sched is not None and base is not None
                else float("nan"),
                sched,
                base,
            )
            for base, sched in zip(results[::2], results[1::2])
        ]

    # -- function tasks -------------------------------------------------
    def run_tasks(self, tasks: Sequence[FnTask]) -> list[object]:
        """Execute a batch of function tasks; returns values in input
        order. Values are JSON-normalized (tuples become lists) so cached
        and fresh runs are indistinguishable."""
        import json

        order: dict[FnTask, None] = dict.fromkeys(tasks)
        resolved: dict[FnTask, object] = {}
        keys: dict[FnTask, str] = {}

        pending: list[FnTask] = []
        for task in order:
            payload = None
            if self._cache is not None:
                keys[task] = cache_key(task.cache_key_material())
                if not self.rerun:
                    payload = self._cache.get(keys[task])
            if payload is not None:
                if "value" in payload:
                    resolved[task] = payload["value"]
                    continue
                self._cache.note_invalid()  # foreign entry: recompute
            pending.append(task)

        self.telemetry.add("fn_tasks", len(pending))
        for task, value in zip(pending, self._map(_run_task, pending)):
            value = json.loads(json.dumps(value))
            resolved[task] = value
            if self._cache is not None:
                self._cache.put(keys[task], {"value": value})
        return [resolved[task] for task in tasks]

    # -- cache maintenance ----------------------------------------------
    def gc_cache(self, max_mb: float) -> Optional[dict]:
        """Evict least-recently-used cache entries down to ``max_mb``
        mebibytes (see :meth:`~repro.sweep.cache.ResultCache.gc`).
        Returns the eviction summary, or ``None`` when caching is off."""
        if self._cache is None:
            return None
        return self._cache.gc(int(max_mb * 2**20))

    # -- execution ------------------------------------------------------
    def _get_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
            atexit.register(self.close)
        return self._pool

    def _rebuild_pool(self) -> None:
        """Discard a dead pool so the next :meth:`_get_pool` spawns a
        fresh one (a broken pool rejects all further submissions)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def _map(self, fn, items: list) -> list:
        if not items:
            return []
        if self.jobs <= 1 or len(items) == 1:
            return [fn(item) for item in items]
        # explicit chunksize: default (1) pickles one task per IPC round
        # trip; batching amortizes it while keeping the pool balanced.
        chunksize = max(1, len(items) // (self.jobs * 4) or 1)
        try:
            return list(self._get_pool().map(fn, items, chunksize=chunksize))
        except BrokenProcessPool:
            # one retry on a fresh pool: a crashed worker (OOM-killed,
            # segfaulted) must not take the whole batch down.
            self.telemetry.add("pool_rebuilds")
            self._rebuild_pool()
            return list(self._get_pool().map(fn, items, chunksize=chunksize))
