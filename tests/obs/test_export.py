"""Exporters and Trace reductions: schema, columns, error surfaces."""

from __future__ import annotations

import csv
import json

import numpy as np
import pytest

from repro.obs.capture import capture_trace, trace_cell
from repro.obs.export import (
    EXPORTERS,
    UnknownExporterError,
    chrome_trace,
    trace_rows,
    validate_chrome_trace,
    write_csv,
)


@pytest.fixture(scope="module")
def cap():
    """One traced headline cell, shared by every test in the module."""
    return capture_trace("headline")


@pytest.fixture(scope="module")
def jobmix_trace():
    from repro.api.jobmix_scenarios import CONTENTION_MIX
    from repro.sim import SimConfig

    cell = CONTENTION_MIX.cells(SimConfig(iterations=2, warmup=1))[1]
    return trace_cell(cell).trace


# ----------------------------------------------------------------------
# chrome exporter
# ----------------------------------------------------------------------
def test_chrome_trace_validates_and_round_trips(cap, tmp_path):
    path = str(tmp_path / "t.json")
    doc = chrome_trace(cap.trace, path)
    validate_chrome_trace(doc)
    validate_chrome_trace(path)  # the on-disk JSON parses identically
    with open(path) as fh:
        assert json.load(fh) == doc


def test_chrome_trace_event_inventory(cap):
    doc = chrome_trace(cap.trace)
    tr = cap.trace
    events = doc["traceEvents"]
    by_ph = {}
    for ev in events:
        by_ph.setdefault(ev["ph"], []).append(ev)
    n_compute = int((~tr.is_transfer).sum())
    # one X event per compute op + one per wire chunk, nothing else
    assert len(by_ph["X"]) == n_compute + tr.n_chunk_events
    names = {ev["args"]["name"] for ev in by_ph["M"]
             if ev["name"] == "thread_name"}
    assert any(name.startswith("wire ") for name in names)
    assert doc["otherData"]["makespan_s"] == tr.makespan
    assert doc["otherData"]["priority_inversions"] == tr.out_of_order_handoffs
    # args carry the observability columns for the detail pane
    x0 = by_ph["X"][0]["args"]
    assert {"ready_us", "wait_us", "queue_depth", "priority"} <= set(x0)


def test_chrome_trace_jobmix_process_groups(jobmix_trace):
    doc = chrome_trace(jobmix_trace)
    procs = {
        ev["args"]["name"]
        for ev in doc["traceEvents"]
        if ev["ph"] == "M" and ev["name"] == "process_name"
    }
    assert procs == {"job:j0", "job:j1"}
    pids = {ev["pid"] for ev in doc["traceEvents"] if ev["ph"] == "X"}
    assert pids == {1, 2}


@pytest.mark.parametrize(
    "doc, msg",
    [
        ([], "object with 'traceEvents'"),
        ({"traceEvents": []}, "non-empty list"),
        ({"traceEvents": [{"ph": "X", "pid": 0, "tid": 0}]}, "missing required"),
        ({"traceEvents": [{"name": "a", "ph": "X", "pid": 0, "tid": 0}]},
         "'ts' and 'dur'"),
        ({"traceEvents": [{"name": "a", "ph": "X", "pid": 0, "tid": 0,
                           "ts": -1.0, "dur": 2.0}]}, "negative"),
        ({"traceEvents": [{"name": "bogus", "ph": "M", "pid": 0, "tid": 0,
                           "args": {"name": "x"}}]}, "unknown name"),
        ({"traceEvents": [{"name": "process_name", "ph": "M", "pid": 0,
                           "tid": 0, "args": {}}]}, "args.name"),
        ({"traceEvents": [{"name": "a", "ph": "B", "pid": 0, "tid": 0}]},
         "unsupported phase"),
    ],
)
def test_validate_chrome_trace_rejects(doc, msg):
    with pytest.raises(ValueError, match=msg):
        validate_chrome_trace(doc)


# ----------------------------------------------------------------------
# csv exporter + registry
# ----------------------------------------------------------------------
def test_csv_columns_and_content(cap, tmp_path):
    path = str(tmp_path / "t.csv")
    rows = write_csv(cap.trace, path)
    assert rows == trace_rows(cap.trace)
    assert len(rows) == cap.trace.n_ops
    with open(path) as fh:
        read = list(csv.DictReader(fh))
    assert len(read) == len(rows)
    assert set(read[0]) == {
        "op", "name", "kind", "resource", "job", "ready_s", "start_s",
        "end_s", "wait_s", "queue_depth", "priority", "dedicated_s",
    }
    kinds = {row["kind"] for row in read}
    assert "transfer" in kinds and kinds <= {"compute", "transfer", "barrier"}


def test_get_exporter_did_you_mean():
    assert EXPORTERS["csv"] is write_csv
    with pytest.raises(UnknownExporterError) as exc:
        EXPORTERS["chrmoe"]
    assert "did you mean 'chrome'" in str(exc.value)
    with pytest.raises(UnknownExporterError) as exc:
        EXPORTERS["flamegraph"]
    assert "available" in str(exc.value)


# ----------------------------------------------------------------------
# capture_trace error surface
# ----------------------------------------------------------------------
def test_capture_trace_rejects_cell_less_scenarios():
    with pytest.raises(ValueError, match="traceable scenarios"):
        capture_trace("table1")


@pytest.mark.parametrize("index", [999, -1])
def test_capture_trace_rejects_out_of_range_cell(index):
    # fig13 at quick scale: 3 envC models x 2 workloads x {tic, tac}
    with pytest.raises(ValueError, match=r"has 12 cells, 0\.\.11"):
        capture_trace("fig13", cell_index=index)


def test_capture_trace_rejects_unknown_scale():
    from repro.registry import UnknownNameError

    with pytest.raises(UnknownNameError) as exc:
        capture_trace("fig13", scale="humongous")
    assert str(exc.value).startswith("unknown scale 'humongous'; available: quick, full")


# ----------------------------------------------------------------------
# Trace reductions (sanity on a real headline trace)
# ----------------------------------------------------------------------
def test_queue_depth_histogram(cap):
    hist = cap.trace.queue_depth_histogram()
    assert set(hist) == {"compute", "transfer"}
    assert sum(hist["compute"].values()) == int((~cap.trace.is_transfer).sum())
    assert sum(hist["transfer"].values()) == int(cap.trace.is_transfer.sum())
    assert all(d >= 1 for d in hist["transfer"])


def test_link_utilization_bounds(cap):
    edges, utils = cap.trace.link_utilization(bins=20)
    assert len(edges) == 21
    assert edges[0] == 0.0 and edges[-1] == pytest.approx(cap.trace.makespan)
    assert utils  # at least one NIC transferred
    for util in utils.values():
        assert util.shape == (20,)
        assert (util >= 0).all() and (util <= 1.0 + 1e-9).all()
    # something actually moved on some link
    assert max(float(u.max()) for u in utils.values()) > 0


def test_overlap_consistency(cap):
    ov = cap.trace.overlap()
    assert 0 <= ov["overlap_frac"] <= 1
    assert ov["overlap_s"] <= min(ov["comm_busy_s"], ov["comp_busy_s"])
    assert ov["comm_busy_s"] > 0 and ov["comp_busy_s"] > 0


def test_critical_path_attribution(cap):
    tr = cap.trace
    cp = tr.critical_path()
    assert cp["ops"]
    ends = [step["end"] for step in cp["ops"]]
    assert ends == sorted(ends)
    assert ends[-1] == pytest.approx(tr.makespan)
    total = cp["compute_s"] + cp["comm_s"] + cp["wait_s"]
    assert total == pytest.approx(tr.makespan, rel=1e-6)


def test_job_stats_single_vs_multi(cap, jobmix_trace):
    single = cap.trace.job_stats()
    assert len(single) == 1
    assert single[0]["starvation"] == pytest.approx(1.0)
    multi = jobmix_trace.job_stats()
    assert [row["job"] for row in multi] == ["j0", "j1"]
    assert all(row["n_transfers"] > 0 for row in multi)
    # starvation is normalized: the mean across ops stays near 1
    assert min(row["starvation"] for row in multi) < 1.0 < max(
        row["starvation"] for row in multi
    )


def test_summary_keys(cap):
    summary = cap.trace.summary()
    assert summary["n_ops"] == cap.trace.n_ops
    assert summary["n_jobs"] == 1
    assert summary["makespan_s"] > 0
    assert {"critical_compute_s", "critical_comm_s", "critical_wait_s",
            "overlap_frac", "priority_inversions"} <= set(summary)
