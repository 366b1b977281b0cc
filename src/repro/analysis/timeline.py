"""Execution-timeline tooling: ASCII Gantt charts.

:func:`ascii_gantt` renders per-resource occupancy of one
:class:`~repro.sim.engine.IterationRecord` as text — handy to eyeball
why a schedule wins (the paper's Fig. 1b/1c, for real models). For an
interactive timeline, record the iteration with ``SimConfig(trace=True)``
and export it with :func:`repro.obs.export.chrome_trace` (Perfetto).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..sim.engine import IterationRecord, SimVariant


def _op_rows(sim: SimVariant, record: IterationRecord, min_duration: float):
    """Yield (resource_name, op_name, start, end) for drawable ops."""
    core = sim.core
    names = core.resource_names()
    for op in core.cluster.graph:
        start = float(record.start[op.op_id])
        end = float(record.end[op.op_id])
        if not np.isfinite(start) or end - start < min_duration:
            continue
        if core.is_transfer[op.op_id]:
            resource = names[core.t_egress[op.op_id]]
        else:
            resource = names[core.op_res[op.op_id]]
        yield resource, op.name, start, end


def ascii_gantt(
    sim: SimVariant,
    record: IterationRecord,
    *,
    width: int = 80,
    min_duration_frac: float = 0.002,
    resources: Optional[list[str]] = None,
) -> str:
    """Per-resource occupancy bars over the iteration's time span.

    Ops shorter than ``min_duration_frac`` of the makespan are dropped
    (thousands of microsecond-scale AUX ops would render as noise).
    """
    span = record.makespan or 1.0
    rows: dict[str, list[str]] = {}
    for resource, _, start, end in _op_rows(
        sim, record, min_duration=span * min_duration_frac
    ):
        if resources is not None and resource not in resources:
            continue
        line = rows.setdefault(resource, [" "] * width)
        a = min(width - 1, int(start / span * width))
        b = min(width, max(a + 1, int(end / span * width)))
        for i in range(a, b):
            line[i] = "#" if line[i] == " " else "="  # '=' marks overlap
    label_w = max((len(r) for r in rows), default=0)
    lines = [f"iteration makespan: {span*1e3:.1f} ms"]
    for resource in sorted(rows):
        lines.append(f"{resource.rjust(label_w)} |{''.join(rows[resource])}|")
    return "\n".join(lines)
