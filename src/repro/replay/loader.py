"""Loader for Alibaba-GPU-2020-style CSV job traces.

The Alibaba cluster-trace-gpu-v2020 release describes each job as task
rows with an instance count and start/end timestamps. This loader
consumes that shape (one row per job):

========== ==========================================================
column      meaning
========== ==========================================================
job_name    unique job id (required)
start_time  submission timestamp, seconds (required)
end_time    completion timestamp, seconds (required)
inst_num    worker instance count (optional; default 2)
status      optional; only ``Terminated`` rows are replayed when present
model       optional model-zoo name; absent columns map jobs onto
            ``model_mix`` round-robin by arrival order
algorithm   optional wizard algorithm (default ``tic``)
========== ==========================================================

Arrival offsets are re-based to the earliest ``start_time``; the demand
is carried as ``duration_s`` (end - start) and converted to an iteration
budget by the replay engine through the job's dedicated iteration time.
Missing required columns fail with did-you-mean hints against the
header actually found, matching the registry errors elsewhere.
"""

from __future__ import annotations

import csv
from typing import Optional, Sequence

from ..registry import did_you_mean
from .trace import JobTrace, TraceError

_REQUIRED = ("job_name", "start_time", "end_time")

#: models assigned round-robin when the trace has no ``model`` column.
DEFAULT_MODEL_MIX = ("AlexNet v2", "Inception v1", "ResNet-50 v1")


def _check_header(found: Sequence[str], path: str) -> None:
    missing = [c for c in _REQUIRED if c not in found]
    if not missing:
        return
    parts = [f"{name!r}{did_you_mean(name, found)}" for name in missing]
    raise TraceError(
        f"{path}: missing required column(s) {', '.join(parts)}; "
        f"found: {', '.join(found) or '(empty header)'}"
    )


def load_alibaba_csv(
    path: str,
    *,
    model_mix: Sequence[str] = DEFAULT_MODEL_MIX,
    workers_cap: int = 8,
    limit: Optional[int] = None,
) -> tuple[JobTrace, ...]:
    """Load ``path`` into a validated, arrival-ordered trace.

    Rows with a non-``Terminated`` status, a non-positive duration or
    unparsable timestamps are skipped (the trace release contains
    failed/running jobs); ``workers_cap`` clamps ``inst_num`` to the
    sizes the simulated cluster supports; ``limit`` keeps only the first
    N surviving jobs (the real trace has tens of thousands).
    """
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        header = tuple(reader.fieldnames or ())
        _check_header(header, path)
        raw = []
        for row in reader:
            if (row.get("status") or "Terminated") != "Terminated":
                continue
            try:
                start = float(row["start_time"])
                end = float(row["end_time"])
            except (TypeError, ValueError):
                continue
            if end <= start:
                continue
            raw.append((start, end, row))
    if not raw:
        raise TraceError(f"{path}: no usable (Terminated, positive-duration) rows")
    raw.sort(key=lambda r: (r[0], r[2]["job_name"]))
    base = raw[0][0]
    jobs = []
    for i, (start, end, row) in enumerate(raw):
        if limit is not None and len(jobs) >= limit:
            break
        try:
            inst = int(float(row.get("inst_num") or 2))
        except ValueError:
            inst = 2
        model = row.get("model") or model_mix[i % len(model_mix)]
        jobs.append(JobTrace(
            job_id=str(row["job_name"]),
            model=model,
            n_workers=max(1, min(inst, workers_cap)),
            n_ps=1,
            algorithm=row.get("algorithm") or "tic",
            arrival_s=round(start - base, 3),
            duration_s=round(end - start, 3),
        ))
    return tuple(jobs)
