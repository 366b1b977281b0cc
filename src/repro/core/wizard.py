"""The Ordering Wizard (§5): one entry point from model to schedule.

Mirrors the paper's offline pipeline: build the reference worker partition,
trace it to estimate the time oracle (TAC only), run the chosen heuristic,
return a :class:`~repro.core.schedules.Schedule` whose priorities the
enforcement module applies at every worker. "The priority list is
calculated offline before the execution; all iterations follow the same
order."
"""

from __future__ import annotations

from typing import Optional

from ..models import build_model
from ..models.ir import ModelIR
from ..ps.reference import ReferencePartition, build_reference_partition
from ..registry import did_you_mean
from ..timing import PLATFORMS, Platform, TimeOracleLike, estimate_time_oracle
from .baselines import (
    layerwise_schedule,
    random_schedule,
    reverse_layerwise_schedule,
)
from .schedules import Schedule, no_schedule
from .tac import tac, tic_plus
from .tic import tic

ALGORITHMS = (
    "baseline",
    "tic",
    "tac",
    "tic_plus",
    "random",
    "layerwise",
    "reverse_layerwise",
)


def compute_schedule(
    reference: ReferencePartition,
    algorithm: str = "tic",
    *,
    oracle: Optional[TimeOracleLike] = None,
    platform: Optional[Platform] = None,
    seed: int = 0,
) -> Schedule:
    """Run one scheduling algorithm on a reference worker partition.

    ``'tac'`` needs the estimated per-op times: pass an ``oracle``, or a
    ``platform`` to trace the reference on (min of
    :data:`~repro.timing.TRACE_RUNS` runs, §5). All other algorithms are
    timing-independent.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; one of {ALGORITHMS}"
            + did_you_mean(algorithm, ALGORITHMS)
        )
    if algorithm == "baseline":
        return no_schedule()
    if algorithm == "tic":
        return tic(reference.graph)
    if algorithm == "tic_plus":
        return tic_plus(reference.graph)
    if algorithm == "tac":
        if oracle is None and platform is not None:
            oracle = estimate_time_oracle(reference.graph, platform, seed=seed)
        if oracle is None:
            raise ValueError("TAC requires a time oracle or a platform to trace")
        return tac(reference.graph, oracle)
    params = reference.recv_params
    if algorithm == "random":
        return random_schedule(params, seed=seed)
    if algorithm == "layerwise":
        return layerwise_schedule(params)
    return reverse_layerwise_schedule(params)


def schedule_model(
    model: str | ModelIR,
    algorithm: str = "tic",
    *,
    workload: str = "training",
    n_ps: int = 1,
    platform: str | Platform = "envG",
    batch_factor: float = 1.0,
    seed: int = 0,
) -> Schedule:
    """End-to-end convenience: model name -> schedule.

    Builds the model IR (paper batch size x ``batch_factor``), emits the
    reference worker partition for ``workload`` with ``n_ps`` shards,
    traces it on ``platform`` for TAC's oracle (min of
    :data:`~repro.timing.TRACE_RUNS` runs, §5), and runs ``algorithm``.
    """
    ir = model if isinstance(model, ModelIR) else build_model(model, batch_factor=batch_factor)
    reference = build_reference_partition(ir, workload=workload, n_ps=n_ps)
    plat = PLATFORMS[platform] if isinstance(platform, str) else platform
    return compute_schedule(reference, algorithm, platform=plat, seed=seed)
