"""Typed results: scenario runs return values, not side effects.

A :class:`ResultSet` bundles a scenario run's primary table, any
auxiliary tables (e.g. the all-reduce wire check), the rendered text
report, free-form extras, and :class:`Provenance` — which engine
revision, scale and cache behaviour produced the numbers. Writing CSVs
is an explicit, separate step (:meth:`ResultSet.save`), so embedders
can consume rows directly and the CLI remains a thin persistence shell.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

from ..analysis import format_table, write_csv

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .scenario import Scenario

Rows = list[dict]


@dataclass
class Report:
    """What a scenario's ``analyze`` function hands back to the engine:
    the primary table's rows, the rendered text, optional auxiliary
    tables (name -> rows; each becomes ``<name>.csv`` on save) and
    free-form extras."""

    rows: Rows
    text: str
    tables: dict[str, Rows] = field(default_factory=dict)
    extras: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Provenance:
    """Where a :class:`ResultSet`'s numbers came from."""

    scenario: str
    scale: str
    seed: int
    jobs: int
    engine_rev: int
    backends: tuple[str, ...]
    #: sweep-cache activity during this run: hits/misses/writes deltas.
    cache: Mapping[str, int]
    elapsed_s: float

    def as_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "scale": self.scale,
            "seed": self.seed,
            "jobs": self.jobs,
            "engine_rev": self.engine_rev,
            "backends": list(self.backends),
            "cache": dict(self.cache),
            "elapsed_s": self.elapsed_s,
        }


def _columns(rows: Sequence[Mapping[str, object]]) -> tuple[str, ...]:
    cols: list[str] = []
    for row in rows:
        for key in row:
            if key not in cols:
                cols.append(key)
    return tuple(cols)


@dataclass
class ResultSet:
    """The value returned by :func:`repro.api.execute_scenario`."""

    #: primary output stem — ``save`` writes ``<name>.csv``.
    name: str
    scenario: "Scenario"
    rows: Rows
    text: str
    tables: dict[str, Rows] = field(default_factory=dict)
    extras: dict = field(default_factory=dict)
    provenance: Optional[Provenance] = None
    #: run telemetry: the sweep runner's counter deltas over this
    #: scenario (cells requested/deduped/cached/simulated, units run,
    #: worker wall time, cache and memo hit/miss counts — see
    #: :mod:`repro.obs.telemetry` for the schema). Empty when the run
    #: touched no sweep machinery.
    telemetry: dict = field(default_factory=dict)

    def telemetry_rows(self) -> Rows:
        """Telemetry as tidy ``{"counter", "value"}`` rows (CSV-ready;
        fold several result sets back together with
        :func:`repro.obs.telemetry.merge_rows`)."""
        return [
            {"counter": name, "value": value}
            for name, value in sorted(self.telemetry.items())
        ]

    @property
    def schema(self) -> tuple[str, ...]:
        """Column names of the primary table, in first-seen order (the
        order ``save`` writes them)."""
        return _columns(self.rows)

    def table_names(self) -> tuple[str, ...]:
        return (self.name, *self.tables)

    def _rows_for(self, table: Optional[str]) -> Rows:
        if table is None or table == self.name:
            return self.rows
        try:
            return self.tables[table]
        except KeyError:
            raise KeyError(
                f"no table {table!r} in this result set; "
                f"available: {list(self.table_names())}"
            ) from None

    def save(self, results_dir: str = "results") -> dict[str, str]:
        """Write every table under ``results_dir`` as ``<stem>.csv``
        (primary first). Returns stem -> path."""
        paths = {
            self.name: write_csv(
                os.path.join(results_dir, f"{self.name}.csv"), self.rows
            )
        }
        for name, rows in self.tables.items():
            paths[name] = write_csv(
                os.path.join(results_dir, f"{name}.csv"), rows
            )
        return paths

    def to_table(self, table: Optional[str] = None, **kwargs) -> str:
        """Render one table (default: primary) as aligned monospace text."""
        return format_table(self._rows_for(table), **kwargs)

    def frame(self, table: Optional[str] = None):
        """Columnar view of one table: a pandas ``DataFrame`` when pandas
        can be imported, otherwise a plain ``{column: [values...]}`` dict
        (this repo deliberately has no hard pandas dependency)."""
        rows = self._rows_for(table)
        try:  # pragma: no cover - pandas is not in the pinned test env
            import pandas

            return pandas.DataFrame(rows)
        except ImportError:
            cols = _columns(rows)
            return {c: [row.get(c) for row in rows] for c in cols}

    def __len__(self) -> int:
        return len(self.rows)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.text
