"""Tracing module and time-oracle estimator (§5).

The paper extends TensorFlow's internal tracer to record per-op runtimes
(including network transfers) over several executions; the time-oracle
estimator then takes, for every op, the minimum across 5 measured runs
(:data:`TRACE_RUNS`). That protocol is fixed: the pipeline takes a graph,
a platform and a seed, and nothing else.

Here the role of "an execution" is played by either

* an actual simulator run (:class:`TraceRecord` objects are produced by
  :mod:`repro.sim`), or
* a direct sample of the platform's jittered ground truth
  (:func:`trace_platform_runs`) — equivalent in distribution and much
  cheaper when all we need is the oracle.

Both paths feed :func:`repro.timing.oracle.oracle_from_runs`. A
jitter-free sample is a sample of a jitter-free platform
(``platform.scaled(jitter_sigma=0.0)``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from ..graph import Graph
from .oracle import MappingTimeOracle, oracle_from_runs
from .platform import Platform

#: executions traced per oracle estimate (§5: "executes each operation 5
#: times ... and chooses the minimum").
TRACE_RUNS = 5


@dataclass
class TraceRecord:
    """Timing stats of one execution: op name -> measured duration (s).

    ``makespan`` is the execution's end-to-end span (used by the efficiency
    metric); ``meta`` carries free-form provenance (iteration number,
    worker id, schedule label, ...).
    """

    times: dict[str, float]
    makespan: float = 0.0
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        bad = [n for n, t in self.times.items() if t < 0]
        if bad:
            raise ValueError(f"negative durations for ops {bad[:3]}...")


class TracingModule:
    """Accumulates :class:`TraceRecord` runs and estimates a time oracle.

    Mirrors the paper's pipeline: *tracing module → time-oracle estimator →
    ordering wizard*: the oracle is the per-op minimum over the first
    :data:`TRACE_RUNS` records, as in §5.
    """

    def __init__(self) -> None:
        self._records: list[TraceRecord] = []

    def record(self, record: TraceRecord) -> None:
        self._records.append(record)

    def extend(self, records: Iterable[TraceRecord]) -> None:
        for r in records:
            self.record(r)

    @property
    def records(self) -> list[TraceRecord]:
        return list(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def estimate_oracle(self) -> MappingTimeOracle:
        """Estimate the time oracle from the first :data:`TRACE_RUNS`
        recorded runs."""
        selected = self._records[:TRACE_RUNS]
        if not selected:
            raise ValueError("no trace records collected yet")
        return oracle_from_runs(r.times for r in selected)


def sample_ground_truth(
    graph: Graph,
    platform: Platform,
    rng: np.random.Generator,
) -> dict[str, float]:
    """One jittered sample of every op's duration — what one instrumented
    execution would measure.

    Jitter is multiplicative lognormal (median 1), matching the simulator's
    ground-truth draw, so a trace assembled from these samples is
    distributed like a trace harvested from real simulator runs.
    """
    sigma = platform.jitter_sigma
    base = platform.time_vector(graph)
    if sigma > 0:
        base = base * rng.lognormal(mean=0.0, sigma=sigma, size=base.shape)
    return {op.name: float(base[op.op_id]) for op in graph}


def trace_platform_runs(
    graph: Graph, platform: Platform, *, seed: int = 0
) -> TracingModule:
    """Collect :data:`TRACE_RUNS` ground-truth samples into a
    :class:`TracingModule`."""
    rng = np.random.default_rng(seed)
    tracer = TracingModule()
    for i in range(TRACE_RUNS):
        times = sample_ground_truth(graph, platform, rng)
        tracer.record(TraceRecord(times=times, makespan=sum(times.values()), meta={"run": i}))
    return tracer


def estimate_time_oracle(
    graph: Graph, platform: Platform, *, seed: int = 0
) -> MappingTimeOracle:
    """End-to-end §5 pipeline: trace :data:`TRACE_RUNS` executions, take
    each op's minimum.

    This is what experiments call to obtain the oracle TAC consumes.
    """
    return trace_platform_runs(graph, platform, seed=seed).estimate_oracle()
