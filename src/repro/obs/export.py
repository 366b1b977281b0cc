"""Trace exporters: Chrome trace-event JSON (Perfetto) and tidy CSV.

Two export shapes serve two audiences:

- :func:`chrome_trace` emits the `Chrome trace-event format
  <https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
  — load the file at https://ui.perfetto.dev (or ``chrome://tracing``)
  and every device and NIC wire channel becomes a swim-lane; under a
  multi-job mix each job gets its own process group with a stable color.
  Compute ops render as complete ("X") events on their device track;
  wire chunks render on their channel track, so a saturated link is
  visibly solid and a §5.1-stalled transfer shows as a gap between its
  queue-enter and wire entry.
- :func:`trace_rows` / :func:`write_csv` emit one tidy row per op
  (identity, timing, queueing, scheduling columns) for notebook/pandas
  analysis without any viewer.

:data:`EXPORTERS` maps exporter names to writer callables; it is a
:class:`~repro.registry.Registry`, so unknown names raise
:class:`UnknownExporterError` with a did-you-mean.
:func:`validate_chrome_trace` checks the emitted JSON against the schema
subset the viewers require (CI runs it on every trace leg).
"""

from __future__ import annotations

import json
from typing import Optional

from ..registry import Registry, UnknownNameError
from .trace import Trace

#: Stable Perfetto color names, cycled per job so co-scheduled jobs are
#: visually separable (single-job traces use the first entry only).
_JOB_COLORS = (
    "thread_state_running",
    "rail_response",
    "thread_state_iowait",
    "rail_animation",
    "thread_state_runnable",
    "rail_idle",
)

_US = 1e6  # trace-event timestamps are microseconds


class UnknownExporterError(UnknownNameError):
    """Raised for exporter names not in :data:`EXPORTERS`."""


def chrome_trace(trace: Trace, path: Optional[str] = None):
    """Render ``trace`` as a Chrome trace-event dict; write it to
    ``path`` as JSON when given.

    Track layout: one process ("pid") per job — or a single ``cluster``
    process for single-job traces — holding one thread per compute
    device plus one per wire channel its transfers use. Compute ops
    emit one complete event each; transfers emit one event per wire
    chunk occupancy (so multi-pass transfers show their interleaving).
    Event ``args`` carry the observability columns (queue-enter, wait,
    depth, priority) for the Perfetto detail pane.
    """
    events: list = []
    wait = trace.wait()
    n_res = len(trace.resource_names)

    def pid_of(op: int) -> int:
        j = int(trace.job[op])
        return j + 1 if 0 <= j < len(trace.jobs) else 0

    # process/thread metadata: names turn raw ids into readable lanes.
    procs = {0: "cluster"}
    for j, label in enumerate(trace.jobs):
        procs[j + 1] = f"job:{label}"
    tids: dict[tuple, str] = {}
    for op in range(trace.n_ops):
        pid = pid_of(op)
        if trace.is_transfer[op]:
            c = int(trace.t_chan[op])
            tids[(pid, n_res + c)] = (
                f"wire {trace.resource_names[trace.chan_egress[c]]}"
                f" -> {trace.resource_names[trace.chan_ingress[c]]}"
            )
        else:
            rid = int(trace.op_res[op])
            tids[(pid, rid)] = trace.resource_names[rid]

    # injected fault windows get their own swim-lane on the cluster
    # process (one lane past the wire channels), so degraded periods are
    # visible alongside the ops they slowed.
    fault_tid = n_res + len(trace.chan_egress)
    if trace.fault_windows:
        tids[(0, fault_tid)] = "faults"

    used_pids = {pid for pid, _ in tids}
    for pid in sorted(used_pids):
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": procs.get(pid, f"job#{pid}")},
            }
        )
    for (pid, tid), name in sorted(tids.items()):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": name},
            }
        )

    def args_of(op: int) -> dict:
        return {
            "op": op,
            "kind": trace.op_kind(op),
            "ready_us": float(trace.ready[op]) * _US,
            "wait_us": float(wait[op]) * _US,
            "queue_depth": int(trace.depth[op]),
            "priority": int(trace.prio[op]),
        }

    for op in range(trace.n_ops):
        if trace.is_transfer[op]:
            continue
        pid = pid_of(op)
        events.append(
            {
                "name": trace.op_names[op],
                "ph": "X",
                "ts": float(trace.start[op]) * _US,
                "dur": float(trace.end[op] - trace.start[op]) * _US,
                "pid": pid,
                "tid": int(trace.op_res[op]),
                "cname": _JOB_COLORS[pid % len(_JOB_COLORS)],
                "args": args_of(op),
            }
        )
    for i in range(len(trace.chunk_op)):
        op = int(trace.chunk_op[i])
        pid = pid_of(op)
        events.append(
            {
                "name": trace.op_names[op],
                "ph": "X",
                "ts": float(trace.chunk_start[i]) * _US,
                "dur": float(trace.chunk_dur[i]) * _US,
                "pid": pid,
                "tid": n_res + int(trace.t_chan[op]),
                "cname": _JOB_COLORS[pid % len(_JOB_COLORS)],
                "args": args_of(op),
            }
        )

    for kind, entity, w0, w1, rate in trace.fault_windows:
        events.append(
            {
                "name": f"{kind} {entity} @{rate:g}",
                "ph": "X",
                "ts": float(w0) * _US,
                "dur": float(w1 - w0) * _US,
                "pid": 0,
                "tid": fault_tid,
                "cname": "terrible",
                "args": {
                    "kind": kind,
                    "entity": entity,
                    "rate": float(rate),
                },
            }
        )

    doc = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "makespan_s": trace.makespan,
            "n_ops": trace.n_ops,
            "n_jobs": len(trace.jobs) or 1,
            "priority_inversions": trace.out_of_order_handoffs,
            "n_fault_windows": len(trace.fault_windows),
        },
    }
    if path is not None:
        with open(path, "w") as fh:
            json.dump(doc, fh)
    return doc


def validate_chrome_trace(doc) -> None:
    """Assert ``doc`` (dict or JSON path) satisfies the trace-event
    schema subset Perfetto/``chrome://tracing`` require; raises
    ``ValueError`` on the first violation. Used by the CI trace leg."""
    if isinstance(doc, str):
        with open(doc) as fh:
            doc = json.load(fh)
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise ValueError("chrome trace must be an object with 'traceEvents'")
    events = doc["traceEvents"]
    if not isinstance(events, list) or not events:
        raise ValueError("'traceEvents' must be a non-empty list")
    for i, ev in enumerate(events):
        for key in ("name", "ph", "pid", "tid"):
            if key not in ev:
                raise ValueError(f"event {i} missing required key {key!r}")
        ph = ev["ph"]
        if ph == "X":
            if "ts" not in ev or "dur" not in ev:
                raise ValueError(f"complete event {i} needs 'ts' and 'dur'")
            if float(ev["dur"]) < 0 or float(ev["ts"]) < 0:
                raise ValueError(f"event {i} has negative ts/dur")
        elif ph == "M":
            if ev["name"] not in ("process_name", "thread_name"):
                raise ValueError(f"metadata event {i} has unknown name")
            if "name" not in ev.get("args", {}):
                raise ValueError(f"metadata event {i} missing args.name")
        else:
            raise ValueError(f"event {i} has unsupported phase {ph!r}")


def trace_rows(trace: Trace) -> list:
    """Tidy per-op rows (delegates to :meth:`Trace.to_rows`)."""
    return trace.to_rows()


def write_csv(trace: Trace, path: str) -> list:
    """Write :func:`trace_rows` to ``path`` as CSV; returns the rows."""
    import csv

    rows = trace_rows(trace)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    return rows


def _export_chrome(trace: Trace, path: str):
    return chrome_trace(trace, path)


#: exporter name -> ``writer(trace, path)``. ``chrome`` writes
#: Perfetto-loadable JSON; ``csv`` writes tidy per-op rows.
EXPORTERS: Registry = Registry(
    "exporter",
    UnknownExporterError,
    {"chrome": _export_chrome, "csv": write_csv},
)
