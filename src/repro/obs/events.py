"""Raw per-iteration trace events, as recorded by the engine's event loop.

:class:`TraceEvents` is the lowest layer of :mod:`repro.obs`: the flat
arrays the event loop fills when ``SimConfig.trace`` is on.
It deliberately knows nothing about clusters, schedules or resources —
op ids index into the owning :class:`~repro.sim.engine.CompiledCore`'s
arrays, and :class:`repro.obs.trace.Trace` joins the two into named,
reduced views.

Recording is **observational**: it consumes no RNG and never reorders
events, so a traced iteration's records are bit-identical to the
untraced one's for the same ``(core, schedule, config, iteration)``.
The parity suite pins this (``tests/obs/test_trace_parity.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class TraceEvents:
    """One iteration's raw event streams (op ids index the core).

    Per-op arrays (length ``core.n``; every op is enqueued and
    dispatched exactly once per iteration):

    * ``ready`` — the time the op entered its ready/channel queue;
    * ``depth`` — the queue length observed at the moment the op was
      picked for dispatch (eligible compute-queue size for compute ops,
      channel queue length for transfers), the op itself included.

    Chunk streams (one entry per wire occupancy; a transfer of ``k``
    chunks contributes ``k`` entries):

    * ``chunk_op`` — the transfer op occupying the wire;
    * ``chunk_start`` / ``chunk_dur`` — when, and for how long.

    Dispatch and finish times are not duplicated here — they are the
    ``start``/``end`` arrays already carried by
    :class:`~repro.sim.engine.IterationRecord`.
    """

    ready: np.ndarray
    depth: np.ndarray
    chunk_op: np.ndarray
    chunk_start: np.ndarray
    chunk_dur: np.ndarray

    @property
    def n_chunk_events(self) -> int:
        return int(self.chunk_op.shape[0])

    def same_stream(self, other: "TraceEvents") -> bool:
        """Bitwise equality of two event streams (the parity predicate:
        no tolerance, the streams must agree exactly)."""
        return (
            np.array_equal(self.ready, other.ready)
            and np.array_equal(self.depth, other.depth)
            and np.array_equal(self.chunk_op, other.chunk_op)
            and np.array_equal(self.chunk_start, other.chunk_start)
            and np.array_equal(self.chunk_dur, other.chunk_dur)
        )
