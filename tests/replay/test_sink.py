"""Chunked sinks: commit/manifest semantics and crash-resume."""

from __future__ import annotations

import json
import os

import pytest

from repro.replay.aggregate import ReplayAggregate
from repro.replay.sink import CsvChunkSink, ListSink, SinkError

COLUMNS = ("algorithm", "job_id", "status", "jct_s", "queue_delay_s",
           "wait_s", "run_s", "finish_s", "slowdown", "slots")


def row(i, alg="mix"):
    return {
        "algorithm": alg, "job_id": f"job-{i:04d}", "status": "done",
        "jct_s": 100.0 + i, "queue_delay_s": float(i), "wait_s": float(i),
        "run_s": 90.0 + i, "finish_s": 200.0 + 10 * i,
        "slowdown": 1.0 + i / 100.0, "slots": 3,
    }


def fresh_sink(path, **kw):
    kw.setdefault("chunk_rows", 4)
    kw.setdefault("aggregate", ReplayAggregate(total_slots=16))
    return CsvChunkSink(str(path), COLUMNS, **kw)


class TestCsvChunkSink:
    def test_chunked_commits_and_manifest(self, tmp_path):
        sink = fresh_sink(tmp_path / "jobs.csv")
        for i in range(10):
            sink.append(row(i))
        info = sink.close()
        assert info["rows"] == 10
        assert info["chunks"] == 3  # 4 + 4 + final partial 2
        manifest = json.loads((tmp_path / "jobs.csv.manifest.json").read_text())
        assert manifest["rows"] == 10
        assert manifest["complete"] is True
        assert manifest["bytes"] == os.path.getsize(tmp_path / "jobs.csv")
        lines = (tmp_path / "jobs.csv").read_text().splitlines()
        assert len(lines) == 11  # header + 10 rows
        assert lines[0].split(",")[0] == "algorithm"

    def test_resume_truncates_uncommitted_tail(self, tmp_path):
        path = tmp_path / "jobs.csv"
        rows = [row(i) for i in range(11)]

        # uninterrupted reference run
        ref = fresh_sink(tmp_path / "ref.csv")
        for r in rows:
            ref.append(r)
        ref.close()

        # interrupted run: 2 chunks (8 rows) committed, 2 rows buffered
        # in an uncommitted third chunk never made it to the manifest —
        # simulate the crash by writing garbage past the committed
        # offset, as a dying process' final partial write would.
        sink = fresh_sink(path)
        for r in rows[:8]:
            sink.append(r)
        assert sink.chunks_committed == 2
        with open(path, "a") as fh:
            fh.write("partial,garbage,row")
        del sink  # no close: the manifest stays at 8 rows

        resumed = fresh_sink(path, resume=True)
        for r in rows:  # deterministic replay regenerates the stream
            resumed.append(r)
        resumed.close()

        assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert resumed.aggregate.summary_rows() == ref.aggregate.summary_rows()
        assert resumed.aggregate.state() == ref.aggregate.state()

    def test_resume_without_manifest(self, tmp_path):
        with pytest.raises(SinkError, match="no manifest"):
            fresh_sink(tmp_path / "missing.csv", resume=True)

    def test_resume_column_mismatch(self, tmp_path):
        path = tmp_path / "jobs.csv"
        fresh_sink(path).close()
        with pytest.raises(SinkError, match="columns"):
            CsvChunkSink(str(path), ("other",), resume=True)

    def test_resume_file_shorter_than_manifest(self, tmp_path):
        path = tmp_path / "jobs.csv"
        sink = fresh_sink(path)
        for i in range(8):
            sink.append(row(i))
        sink.close()
        path.write_text("gone")
        with pytest.raises(SinkError, match="shorter"):
            fresh_sink(path, resume=True)

    def test_diverged_resume_refuses_close(self, tmp_path):
        path = tmp_path / "jobs.csv"
        sink = fresh_sink(path)
        for i in range(8):
            sink.append(row(i))
        sink.close()
        resumed = fresh_sink(path, resume=True)
        resumed.append(row(0))  # only 1 of the 8 committed rows replayed
        with pytest.raises(SinkError, match="diverged"):
            resumed.close()

    def test_resume_restores_aggregate_from_manifest(self, tmp_path):
        path = tmp_path / "jobs.csv"
        sink = fresh_sink(path)
        for i in range(4):
            sink.append(row(i))
        sink.close()
        resumed = CsvChunkSink(str(path), COLUMNS, resume=True)
        assert resumed.aggregate is not None
        (summary,) = resumed.aggregate.summary_rows()
        assert summary["jobs"] == 4
        for i in range(4):
            resumed.append(row(i))
        resumed.close()

    def test_bad_chunk_rows(self, tmp_path):
        with pytest.raises(SinkError, match="chunk_rows"):
            fresh_sink(tmp_path / "jobs.csv", chunk_rows=0)


class TestListSink:
    def test_collects_and_aggregates(self):
        sink = ListSink(aggregate=ReplayAggregate(total_slots=16))
        sink.append(row(0))
        sink.append(row(1))
        assert len(sink.rows) == 2
        assert sink.aggregate.summary_rows()[0]["jobs"] == 2
        assert sink.close()["rows"] == 2
