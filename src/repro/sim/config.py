"""Simulation configuration knobs.

The defaults reproduce the paper's deployed system: sender-side counter
enforcement in front of the gRPC channel (§5.1) with the residual
reordering rate the paper measured (~0.5%), random executor tie-breaking
(vanilla TensorFlow's behaviour for unprioritized ops), and the platform's
own jitter. The alternatives exist for the ablation benches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

from ..faults.plan import FaultPlan

#: How a schedule's priorities are imposed on the network (§5.1 discusses
#: all candidate points; the paper deploys ``sender``):
#:
#: * ``sender`` — per-(PS,worker,iteration) counters gate each transfer's
#:   hand-off to the channel; hand-offs happen in priority order, channel
#:   pipelining preserved (the paper's choice).
#: * ``ready_queue`` — the idealized §3.1 semantics: the channel's ready
#:   queue picks the lowest-priority-number transfer (random among ties
#:   and unprioritized ops). No counters, no hand-off gating.
#: * ``dag`` — the conservative alternative the paper rejects: transfer k
#:   may not start until transfer k-1 has *completed* (as if chained by
#:   DAG edges), forfeiting request/response pipelining.
#: * ``none`` — ignore priorities entirely (vanilla TF baseline).
#:
#: *Collective chunk* transfers (the reduce-scatter/all-gather ops of
#: :mod:`repro.collectives`) are worker-to-worker pipelines with no
#: PS-side hand-off op, so the §5.1 sender counters and the DAG strawman
#: do not apply to them: under every mode but ``none`` a scheduled chunk
#: channel serves the lowest chunk rank first (ByteScheduler's priority
#: queue).
ENFORCEMENT_MODES = ("sender", "ready_queue", "dag", "none")


@dataclass(frozen=True)
class SimConfig:
    """Knobs of one simulation run."""

    seed: int = 0
    enforcement: str = "sender"
    #: probability that a hand-off lands one slot early in the gRPC queue
    #: (the paper measured 0.4-0.5% residual out-of-order transfers).
    grpc_reorder_prob: float = 0.005
    #: override the platform's lognormal jitter sigma (None = platform's).
    jitter_sigma: Optional[float] = None
    #: wire-level multiplexing granularity. Distinct gRPC channels are
    #: distinct TCP connections; a NIC shares bandwidth among them at
    #: packet granularity. The simulator serves transfers in chunks of
    #: this many bytes, round-robin across a NIC's channels, which
    #: reproduces that fair sharing without per-packet events.
    chunk_bytes: int = 4 * 2**20
    #: iterations to record, and the index of the first recorded one
    #: (the paper discards 2 warm-up iterations and records 10). Each
    #: iteration is a pure function of ``(seed, index)``, so the
    #: ``warmup`` indices before the first recorded one are skipped, not
    #: simulated: a run records indices ``warmup .. warmup+iterations-1``.
    iterations: int = 10
    warmup: int = 0
    #: per-device compute slowdown factors, e.g. (("worker:2", 1.5),) makes
    #: worker:2's compute ops 1.5x slower. Models the *system-level*
    #: straggler source of §6.3 (preempted/oversubscribed cloud workers),
    #: as opposed to the scheduling-induced source TicTac removes.
    device_slowdown: tuple = ()
    #: record per-op trace events (queue-enter, dispatch, finish, queue
    #: depth, per-chunk wire occupancy) on each ``IterationRecord`` (see
    #: :mod:`repro.obs`). Tracing is observational only — it consumes no
    #: RNG and never changes event order, so results are bit-identical
    #: with tracing on or off. Excluded from sweep cache keys: a traced
    #: run produces the same numbers as an untraced one.
    trace: bool = False
    #: declarative fault plan (see :mod:`repro.faults`): time-windowed
    #: link degradation, NIC flaps, straggler bursts and host failures.
    #: ``None`` (and an empty plan) is byte-identical to the pre-fault
    #: engine. Unlike ``trace``, faults DO change results, so a set plan folds into
    #: sweep cache keys (see ``SimCell.key_payload``).
    faults: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if self.enforcement not in ENFORCEMENT_MODES:
            raise ValueError(
                f"enforcement must be one of {ENFORCEMENT_MODES}, got {self.enforcement!r}"
            )
        if not 0.0 <= self.grpc_reorder_prob <= 1.0:
            raise ValueError("grpc_reorder_prob must be in [0, 1]")
        if self.jitter_sigma is not None and not (
            math.isfinite(self.jitter_sigma) and self.jitter_sigma >= 0
        ):
            raise ValueError(
                f"jitter_sigma must be None or a finite value >= 0, "
                f"got {self.jitter_sigma!r}"
            )
        if self.chunk_bytes <= 0:
            raise ValueError("chunk_bytes must be positive")
        for entry in self.device_slowdown:
            device, factor = entry
            if factor <= 0:
                raise ValueError(f"slowdown factor for {device!r} must be > 0")
        if self.faults is not None and not isinstance(self.faults, FaultPlan):
            raise ValueError(
                f"faults must be a FaultPlan or None, got {self.faults!r}"
            )
        if self.iterations <= 0 or self.warmup < 0:
            raise ValueError("iterations must be > 0 and warmup >= 0")

    def with_(self, **changes) -> "SimConfig":
        return replace(self, **changes)
