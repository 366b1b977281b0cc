"""Pipelined multi-iteration simulation (extension of the paper's model).

The paper measures barrier-to-barrier iterations. Real PS training
pipelines *per parameter* across the barrier: a parameter's next-iteration
pull may start as soon as its own update lands, while other parameters'
gradients are still aggregating. This module unrolls a window of K
iterations with those cross-iteration edges
(:func:`repro.ps.cluster.build_cluster_graph` with ``n_iterations=K``) and
reports the steady-state iteration time

    (finish_{K-1} - finish_0) / (K - 1)

which is what a long-running job actually experiences. Comparing it to the
barrier model quantifies how much of TicTac's benefit survives pipelining
(ablation: it does — ordering acts within each iteration's pull phase,
which pipelining does not remove).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from ..core.schedules import Schedule
from ..models import build_model
from ..models.ir import ModelIR
from ..ps.cluster import ClusterSpec, build_cluster_graph
from ..timing import PLATFORMS, Platform
from .config import SimConfig
from .engine import CompiledCore
from .runner import bind_variant


@dataclass
class PipelinedResult:
    """Steady-state measurements over a window of unrolled iterations."""

    model: str
    algorithm: str
    window: int
    #: per run: completion time of each unrolled iteration.
    finish_times: list[np.ndarray] = field(default_factory=list)

    @property
    def steady_iteration_times(self) -> np.ndarray:
        """Per-run steady-state iteration time (excludes fill latency)."""
        return np.array(
            [(f[-1] - f[0]) / (len(f) - 1) for f in self.finish_times]
        )

    @property
    def mean_steady_iteration_time(self) -> float:
        return float(self.steady_iteration_times.mean())

    @property
    def fill_latency(self) -> float:
        """Mean completion time of the first iteration (pipeline fill)."""
        return float(np.mean([f[0] for f in self.finish_times]))


def simulate_pipelined(
    model: Union[str, ModelIR],
    spec: ClusterSpec,
    *,
    window: int = 4,
    algorithm: str = "baseline",
    schedule: Optional[Schedule] = None,
    platform: Union[str, Platform] = "envG",
    config: Optional[SimConfig] = None,
) -> PipelinedResult:
    """Simulate ``config.iterations`` runs of a K-iteration pipelined
    window of a PS cluster; the schedule is bound onto the unrolled
    graph's core by :func:`repro.sim.runner.bind_variant`."""
    if not isinstance(spec, ClusterSpec):
        raise TypeError(
            f"pipelined simulation needs a ClusterSpec, not {type(spec).__name__}"
        )
    if window < 2:
        raise ValueError("pipelined simulation needs window >= 2")
    plat = PLATFORMS[platform] if isinstance(platform, str) else platform
    ir = model if isinstance(model, ModelIR) else build_model(model)
    cluster = build_cluster_graph(ir, spec, n_iterations=window)
    sim = bind_variant(
        ir, spec, CompiledCore(cluster, plat),
        schedule if schedule is not None else algorithm, config,
    )
    result = PipelinedResult(
        model=ir.name, algorithm=sim.schedule.algorithm, window=window
    )
    for record in sim.iter_iterations(0, sim.config.iterations):
        finishes = np.array(
            [
                record.end[np.asarray(cluster.iteration_ops[k])].max()
                for k in range(window)
            ]
        )
        result.finish_times.append(finishes)
    return result
