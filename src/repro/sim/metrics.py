"""Per-iteration and per-run measurements (§6's reported quantities).

* **iteration time** — barrier-to-barrier makespan of the cluster DAG;
* **throughput** — ``W x batch / iteration_time`` samples/second (the
  paper's headline metric);
* **straggler time %** — maximum time any worker spends waiting for the
  slowest worker, as a fraction of iteration time (§6.3);
* **scheduling efficiency** — Eq. 3 over the iteration: ``U`` sums every
  op's dedicated (oracle-style) time, ``L`` maxes dedicated load over the
  effective resources (device compute engines and NICs), ``m`` is the
  measured makespan. ``E -> 1`` means the run packed the bottleneck
  resource perfectly; random transfer orders leave the bottleneck idle and
  score low.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.efficiency import EfficiencyReport
from .engine import IterationRecord, SimVariant


@dataclass
class IterationResult:
    """Summarized outcome of one iteration."""

    makespan: float
    worker_finish: dict[str, float]
    #: Eq. 1-3 over the whole iteration.
    efficiency: EfficiencyReport
    out_of_order_handoffs: int = 0
    #: job label -> last op finish time (multi-job mixes only; a job's
    #: completion time is ``job_finish[j] - arrival[j]``).
    job_finish: dict[str, float] = field(default_factory=dict)

    @property
    def straggler_pct(self) -> float:
        """Max worker wait relative to iteration time, in percent (§6.3)."""
        finishes = list(self.worker_finish.values())
        if len(finishes) <= 1 or self.makespan == 0:
            return 0.0
        return (max(finishes) - min(finishes)) / self.makespan * 100.0


@dataclass
class SimulationResult:
    """All recorded iterations of one simulated run.

    Warm-up iterations are not simulated and leave no trace here:
    ``iterations`` holds indices ``config.warmup`` onward."""

    model: str
    batch_size: int
    n_workers: int
    n_ps: int
    workload: str
    algorithm: str
    platform: str
    iterations: list[IterationResult] = field(default_factory=list)
    #: parameter-tensor count of the model (for out-of-order rates).
    n_params: int = 0

    @property
    def iteration_times(self) -> np.ndarray:
        return np.array([it.makespan for it in self.iterations])

    @property
    def mean_iteration_time(self) -> float:
        return float(self.iteration_times.mean())

    @property
    def throughput(self) -> float:
        """Mean samples/second across recorded iterations (training and
        inference alike process W x batch samples per iteration)."""
        return self.n_workers * self.batch_size / self.mean_iteration_time

    @property
    def max_straggler_pct(self) -> float:
        """The paper reports the max across iterations (§6 Setup)."""
        return max(it.straggler_pct for it in self.iterations)

    @property
    def mean_straggler_pct(self) -> float:
        return float(np.mean([it.straggler_pct for it in self.iterations]))

    @property
    def efficiencies(self) -> np.ndarray:
        return np.array([it.efficiency.efficiency for it in self.iterations])

    @property
    def max_efficiency(self) -> float:
        return float(self.efficiencies.max())

    @property
    def mean_efficiency(self) -> float:
        return float(self.efficiencies.mean())

    @property
    def out_of_order_rate(self) -> float:
        """Fraction of param transfers that hit the wire out of priority
        order (compare against the paper's measured 0.4-0.5%)."""
        total = sum(it.out_of_order_handoffs for it in self.iterations)
        denom = self.n_params * self.n_workers * max(len(self.iterations), 1)
        return total / denom if denom else 0.0

    def summary(self) -> dict:
        """Flat dict for CSV reporting."""
        return {
            "model": self.model,
            "workload": self.workload,
            "algorithm": self.algorithm,
            "platform": self.platform,
            "workers": self.n_workers,
            "ps": self.n_ps,
            "batch": self.batch_size,
            "iteration_time_s": self.mean_iteration_time,
            "iteration_time_p95_s": float(np.percentile(self.iteration_times, 95)),
            "throughput_sps": self.throughput,
            "straggler_pct_max": self.max_straggler_pct,
            "efficiency_mean": self.mean_efficiency,
        }


def summarize_iteration(sim: SimVariant, record: IterationRecord) -> IterationResult:
    """Reduce one raw :class:`IterationRecord` to its reported metrics."""
    cluster = sim.core.cluster
    finishes: dict[str, float] = {}
    for worker, op_ids in cluster.worker_ops.items():
        ids = np.asarray(op_ids)
        finishes[worker] = float(record.end[ids].max())
    # Per-job completion (multi-job mixes): last op finish per job label.
    # Computed from the recorded end times, not in the hot loop.
    job_finish: dict[str, float] = {}
    for label, op_ids in (getattr(cluster, "job_ops", None) or {}).items():
        ids = np.asarray(list(op_ids))
        job_finish[label] = float(record.end[ids].max())
    loads = sim.resource_loads(record)
    report = EfficiencyReport(
        makespan=record.makespan,
        upper=float(record.dedicated.sum()),
        lower=max(loads.values()),
    )
    return IterationResult(
        makespan=record.makespan,
        worker_finish=finishes,
        efficiency=report,
        out_of_order_handoffs=record.out_of_order_handoffs,
        job_finish=job_finish,
    )
