"""Streaming result sinks: chunked append with crash-resume.

A replay emits one row per finished job, in event order. A
:class:`RowSink` consumes that stream without ever holding it:

* :class:`CsvChunkSink` — buffers ``chunk_rows`` rows, then *commits*
  the chunk: append to the CSV, ``fsync``, and atomically rewrite a
  sidecar manifest (``<path>.manifest.json``) recording the committed
  row count, byte offset, chunk count and the incremental
  :class:`~repro.replay.aggregate.ReplayAggregate` state. A killed
  replay leaves at most one uncommitted partial chunk; resuming
  truncates the CSV back to the manifest's byte offset, restores the
  aggregate, and skips the already-committed prefix of the
  (deterministic) row stream — the final file and aggregate are
  byte-identical to an uninterrupted run.
* :class:`ListSink` — in-memory rows for tests and small studies.
"""

from __future__ import annotations

import csv
import io
import json
import os
from typing import Mapping, Optional, Sequence

from .aggregate import ReplayAggregate


class SinkError(ValueError):
    """A sink request that cannot be satisfied (bad resume, bad size)."""


class RowSink:
    """Base interface: ``append(row)`` rows, then ``close()``."""

    #: rows handed to this sink (committed or buffered; includes skipped
    #: already-committed rows on a resumed sink).
    rows_seen: int = 0
    chunks_committed: int = 0
    aggregate: Optional[ReplayAggregate] = None

    def append(self, row: Mapping) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self, complete: bool = True) -> dict:  # pragma: no cover
        raise NotImplementedError


class ListSink(RowSink):
    """Hold rows in memory — tests and small committed studies only."""

    def __init__(self, aggregate: Optional[ReplayAggregate] = None) -> None:
        self.rows: list[dict] = []
        self.aggregate = aggregate

    def append(self, row: Mapping) -> None:
        self.rows_seen += 1
        self.rows.append(dict(row))
        if self.aggregate is not None:
            self.aggregate.observe(row)

    def close(self, complete: bool = True) -> dict:
        return {"rows": len(self.rows), "chunks": 0, "path": None}


def _write_manifest(path: str, manifest: dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(manifest, fh)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


class CsvChunkSink(RowSink):
    """Chunked CSV append with manifest-based crash-resume."""

    def __init__(
        self,
        path: str,
        columns: Sequence[str],
        *,
        chunk_rows: int = 512,
        resume: bool = False,
        aggregate: Optional[ReplayAggregate] = None,
    ) -> None:
        if chunk_rows <= 0:
            raise SinkError(f"chunk_rows must be positive, got {chunk_rows}")
        self.path = path
        self.columns = tuple(columns)
        self.chunk_rows = chunk_rows
        self.aggregate = aggregate
        self.manifest_path = path + ".manifest.json"
        self._buffer = io.StringIO()
        self._writer = csv.DictWriter(self._buffer, fieldnames=self.columns)
        self._buffered = 0
        self._skip = 0
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        if resume:
            self._open_resume()
        else:
            self._open_fresh()

    # -- opening --------------------------------------------------------
    def _open_fresh(self) -> None:
        with open(self.path, "w", newline="") as fh:
            csv.DictWriter(fh, fieldnames=self.columns).writeheader()
            fh.flush()
            os.fsync(fh.fileno())
            self._bytes = fh.tell()
        self.rows_committed = 0
        self.chunks_committed = 0
        self._commit_manifest(complete=False)
        self._fh = open(self.path, "a", newline="")

    def _open_resume(self) -> None:
        try:
            with open(self.manifest_path) as fh:
                manifest = json.load(fh)
        except FileNotFoundError:
            raise SinkError(
                f"cannot resume {self.path}: no manifest at "
                f"{self.manifest_path} (a completed replay deletes its "
                f"manifest; only an interrupted one can resume)"
            ) from None
        if tuple(manifest["columns"]) != self.columns:
            raise SinkError(
                f"cannot resume {self.path}: manifest columns "
                f"{manifest['columns']} do not match {list(self.columns)}"
            )
        try:
            size = os.path.getsize(self.path)
        except FileNotFoundError:
            raise SinkError(
                f"cannot resume {self.path}: the CSV is gone but its "
                f"manifest survives"
            ) from None
        if size < manifest["bytes"]:
            raise SinkError(
                f"cannot resume {self.path}: file is shorter ({size} B) than "
                f"its manifest's committed offset ({manifest['bytes']} B)"
            )
        # drop the uncommitted tail a crash may have left behind
        with open(self.path, "r+b") as fh:
            fh.truncate(manifest["bytes"])
        self._bytes = int(manifest["bytes"])
        self.rows_committed = int(manifest["rows"])
        self.chunks_committed = int(manifest["chunks"])
        self._skip = self.rows_committed
        if manifest.get("aggregate") is not None:
            self.aggregate = ReplayAggregate.from_state(manifest["aggregate"])
        self._fh = open(self.path, "a", newline="")

    # -- streaming ------------------------------------------------------
    def append(self, row: Mapping) -> None:
        self.rows_seen += 1
        if self._skip:
            # already committed (and aggregated) before the crash: the
            # deterministic replay regenerates it, the sink drops it.
            self._skip -= 1
            return
        if self.aggregate is not None:
            self.aggregate.observe(row)
        self._writer.writerow({c: row.get(c, "") for c in self.columns})
        self._buffered += 1
        if self._buffered >= self.chunk_rows:
            self._commit()

    def _commit(self) -> None:
        if self._buffered:
            self._fh.write(self._buffer.getvalue())
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._bytes = self._fh.tell()
            self.rows_committed += self._buffered
            self._buffer = io.StringIO()
            self._writer = csv.DictWriter(self._buffer, fieldnames=self.columns)
            self._buffered = 0
        self.chunks_committed += 1
        self._commit_manifest(complete=False)

    def _commit_manifest(self, complete: bool) -> None:
        _write_manifest(self.manifest_path, {
            "rows": self.rows_committed,
            "bytes": self._bytes,
            "chunks": self.chunks_committed,
            "columns": list(self.columns),
            "complete": complete,
            "aggregate": (
                self.aggregate.state() if self.aggregate is not None else None
            ),
        })

    def close(self, complete: bool = True) -> dict:
        if self._skip:
            raise SinkError(
                f"resumed sink closed with {self._skip} committed row(s) "
                f"never replayed — the resumed stream diverged from the "
                f"original run"
            )
        if self._buffered:
            self._fh.write(self._buffer.getvalue())
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._bytes = self._fh.tell()
            self.rows_committed += self._buffered
            self._buffered = 0
            self.chunks_committed += 1
        self._fh.close()
        self._commit_manifest(complete=complete)
        return {
            "path": self.path,
            "rows": self.rows_committed,
            "chunks": self.chunks_committed,
            "bytes": self._bytes,
        }
