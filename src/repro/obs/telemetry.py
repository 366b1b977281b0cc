"""Run-level telemetry: structured counters for the sweep/API layers.

Where :mod:`repro.obs.trace` looks *inside* one simulated iteration,
:class:`Telemetry` watches the machinery *around* it: how many cells a
run asked for, how many were deduplicated, served from the on-disk
cache, or actually simulated; how many compile-once units that took; how much worker wall time the simulations consumed and
how busy that kept the pool. The :class:`~repro.sweep.runner.SweepRunner`
owns one instance and increments it as batches flow through;
:func:`repro.api.engine.execute_scenario` snapshots it around each
scenario and publishes the delta as ``ResultSet.telemetry``.

Counters are plain floats in a flat namespace — cheap enough to leave on
permanently (they are always collected; only *trace* recording is
opt-in). All counts are from the driver process's point of view: memo
hits inside pool workers stay in those workers, and worker simulation
time is what the workers themselves report (``sim_wall_s``), so
``pool occupancy = sim_wall_s / (run_wall_s * jobs)``.

Counter schema (all optional — absent means zero):

========================  ====================================================
``run_cells_calls``       ``SweepRunner.run_cells`` invocations
``run_cells_wall_s``      driver wall time spent inside ``run_cells``
``cells_requested``       cells passed in (before dedupe)
``cells_deduped``         duplicates collapsed within a batch
``cells_cached``          cells served from the on-disk cache
``cells_simulated``       cells actually simulated
``sim_wall_s``            worker-side wall time over all simulations
``cell_wall_max_s``       slowest single simulation unit
``groups_run``            cell units run (one group, or one chunk of a
                          group when groups < jobs; retries count again)
``retries``               cells re-run after their unit was lost
``quarantined``           cells given up on after ``max_retries``
``pool_rebuilds``         dead worker pools replaced
``fn_tasks``              function tasks executed (non-cell work)
``cache_hits/misses/writes``  on-disk cache counters (delta per scenario)
``wizard_memo_hits/misses``   in-process ordering-wizard memo counters
``graph_memo_hits/misses``    in-process cluster-graph memo counters
``shape_core_memo_hits/misses``  in-process per-job compiled-core memo
                              counters (job mixes)
``replica_memo_hits/misses``  in-process compiled worker-replica memo
                              counters (see :mod:`repro.sim.compile`)
``variant_memo_hits``         group variants served from an earlier variant
                              with an equal ``(config, lowering)`` (see
                              :func:`repro.sim.runner.simulate_cell_group`)
========================  ====================================================
"""

from __future__ import annotations

import time
from typing import Iterable, Mapping


class Telemetry:
    """A flat bag of named counters (str -> float), merge- and
    diff-able so callers can publish per-scenario deltas."""

    __slots__ = ("counters",)

    def __init__(self, counters: Mapping[str, float] | None = None) -> None:
        self.counters: dict[str, float] = dict(counters or {})

    # -- recording -------------------------------------------------------
    def add(self, name: str, value: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + float(value)

    def peak(self, name: str, value: float) -> None:
        """Track a maximum (e.g. the slowest cell) instead of a sum."""
        if float(value) > self.counters.get(name, 0.0):
            self.counters[name] = float(value)

    def timer(self, name: str) -> "_Timer":
        """``with telemetry.timer("run_cells_wall_s"): ...`` adds the
        block's wall seconds to the counter."""
        return _Timer(self, name)

    def merge(self, other: "Telemetry | Mapping[str, float]") -> None:
        counters = other.counters if isinstance(other, Telemetry) else other
        for name, value in counters.items():
            self.add(name, value)

    # -- reading ----------------------------------------------------------
    def get(self, name: str, default: float = 0.0) -> float:
        return self.counters.get(name, default)

    def as_dict(self) -> dict[str, float]:
        return dict(sorted(self.counters.items()))

    def delta_since(self, snapshot: Mapping[str, float]) -> dict[str, float]:
        """Counters accumulated since ``snapshot`` (``as_dict`` output).
        Peak counters are included at their current value when they grew."""
        out: dict[str, float] = {}
        for name, value in self.counters.items():
            d = value - snapshot.get(name, 0.0)
            if d != 0.0:
                out[name] = value if name.endswith("_max_s") else d
        return dict(sorted(out.items()))

    def rows(self) -> list[dict]:
        """Tidy ``{"counter": ..., "value": ...}`` rows (CSV-friendly)."""
        return [
            {"counter": name, "value": value}
            for name, value in sorted(self.counters.items())
        ]

    def __bool__(self) -> bool:
        return bool(self.counters)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v:g}" for k, v in sorted(self.counters.items()))
        return f"Telemetry({inner})"


class _Timer:
    __slots__ = ("_telemetry", "_name", "_t0")

    def __init__(self, telemetry: Telemetry, name: str) -> None:
        self._telemetry = telemetry
        self._name = name

    def __enter__(self) -> "_Timer":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._telemetry.add(self._name, time.perf_counter() - self._t0)


def memo_counters() -> dict[str, float]:
    """This process's memo counters (every
    :class:`~repro.backends.Memo`'s hits and misses, and the variant
    reuse of :func:`repro.sim.runner.simulate_cell_group`), as
    telemetry-ready floats."""
    from ..backends import MEMO_COUNTERS
    from ..sim import runner  # noqa: F401  (its memos register their counters)

    return {name: float(value) for name, value in MEMO_COUNTERS.items()}


def merge_rows(rows: Iterable[Mapping]) -> dict[str, float]:
    """Fold ``Telemetry.rows()``-shaped rows back into one counter dict
    (used when aggregating several ResultSets)."""
    out: dict[str, float] = {}
    for row in rows:
        name = str(row["counter"])
        out[name] = out.get(name, 0.0) + float(row["value"])
    return dict(sorted(out.items()))
