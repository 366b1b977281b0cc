"""High-level simulation entry points.

:func:`simulate_cluster` is the one call experiments make: model name ->
schedule (via the ordering wizard) -> cluster graph -> compiled simulation
-> recorded iterations with the paper's metrics. Mirrors the paper's
measurement protocol: discard warm-up iterations, record the next N
(§6 Setup: discard 2, record 10).
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from ..backends import build_comm_graph, prepare_comm_schedule
from ..core.schedules import Schedule
from ..models import build_model
from ..models.ir import ModelIR
from ..ps.cluster import ClusterGraph, ClusterSpec
from ..timing import Platform, get_platform
from .config import SimConfig
from .engine import CompiledCore, SimVariant
from .metrics import SimulationResult, summarize_iteration


def prepare_schedule(
    ir: ModelIR,
    spec: ClusterSpec,
    algorithm: str,
    platform: Platform,
    *,
    trace_runs: int = 5,
    seed: int = 0,
) -> Schedule:
    """Offline ordering-wizard pass for a cluster configuration (§5):
    build the reference worker partition, trace it for TAC's oracle,
    run the heuristic. Dispatches on the spec's backend (PS or
    collective) and memoizes identical passes within the process — see
    :func:`repro.backends.prepare_comm_schedule`."""
    return prepare_comm_schedule(
        ir, spec, algorithm, platform, trace_runs=trace_runs, seed=seed
    )


def simulate_cluster(
    model: Union[str, ModelIR],
    spec: ClusterSpec,
    *,
    algorithm: str = "baseline",
    schedule: Optional[Schedule] = None,
    platform: Union[str, Platform] = "envG",
    config: Optional[SimConfig] = None,
    batch_factor: float = 1.0,
    cluster: Optional[ClusterGraph] = None,
    core: Optional[CompiledCore] = None,
) -> SimulationResult:
    """Simulate ``config.iterations`` iterations of one configuration.

    Either pass a precomputed ``schedule`` or an ``algorithm`` name for the
    wizard ('baseline', 'tic', 'tac', 'tic_plus', 'random', 'layerwise',
    'reverse_layerwise'). ``cluster`` short-circuits graph assembly and
    ``core`` short-circuits array compilation when sweeping algorithms
    over one configuration (see :func:`simulate_cell_group`). ``spec``
    selects the communication backend by type: a PS
    :class:`~repro.ps.cluster.ClusterSpec`, a collective
    :class:`~repro.collectives.CollectiveSpec`, or a multi-job
    :class:`~repro.sim.jobmix.JobMixSpec` (several jobs placed on
    shared hosts; per-job completions land in
    ``IterationResult.job_finish``).
    """
    plat = get_platform(platform) if isinstance(platform, str) else platform
    cfg = config or SimConfig()
    ir = model if isinstance(model, ModelIR) else build_model(model, batch_factor=batch_factor)
    if core is not None and cluster is None:
        cluster = core.cluster
    if cluster is None:
        cluster = build_comm_graph(ir, spec)
    elif cluster.spec != spec:
        raise ValueError("provided cluster graph was built for a different spec")
    if schedule is None:
        if algorithm == "baseline":
            schedule = Schedule("baseline")
        else:
            schedule = prepare_schedule(ir, spec, algorithm, plat, seed=cfg.seed)

    if core is None:
        core = CompiledCore(cluster, plat)
    elif core.cluster is not cluster or core.platform != plat:
        raise ValueError("provided core was compiled for a different cluster/platform")
    sim = SimVariant(core, schedule, cfg)
    result = SimulationResult(
        model=ir.name,
        batch_size=ir.batch_size,
        n_workers=spec.n_workers,
        n_ps=spec.n_ps,
        workload=spec.workload,
        algorithm=schedule.algorithm,
        platform=plat.name,
        n_params=ir.n_param_tensors,
    )
    # iter_iterations streams records (slabbed batch setup inside): each
    # is summarized and dropped, so 1000-iteration protocols stay O(n).
    for i, record in enumerate(sim.iter_iterations(0, cfg.total_iterations)):
        summary = summarize_iteration(sim, record, keep_op_times=cfg.keep_op_times)
        (result.warmup if i < cfg.warmup else result.iterations).append(summary)
    return result


def simulate_cell_group(
    model: Union[str, ModelIR],
    spec: ClusterSpec,
    variants: Sequence[tuple[str, Optional[SimConfig]]],
    *,
    platform: Union[str, Platform] = "envG",
    batch_factor: float = 1.0,
) -> list[SimulationResult]:
    """Compile once, simulate many: build the model IR, the cluster graph
    AND the engine's :class:`~repro.sim.engine.CompiledCore` arrays a
    single time, then bind a lightweight
    :class:`~repro.sim.engine.SimVariant` per ``(algorithm, config)``
    variant. This is the sweep runner's unit of work — a grid's algorithms
    and iteration counts differ only in ``Schedule`` and ``SimConfig``, so
    recompiling the dependency CSR/resource/channel arrays per cell (as
    earlier revisions did) is pure waste. Each variant is still fully
    deterministic in its own config: the engine seeds from
    ``(config.seed, iteration)`` and never mutates the core or the cluster
    graph, so results are identical to separate one-shot
    :func:`simulate_cluster` calls."""
    plat = get_platform(platform) if isinstance(platform, str) else platform
    ir = model if isinstance(model, ModelIR) else build_model(model, batch_factor=batch_factor)
    cluster = build_comm_graph(ir, spec)
    core = CompiledCore(cluster, plat)
    return [
        simulate_cluster(ir, spec, algorithm=algorithm, platform=plat,
                         config=config, cluster=cluster, core=core)
        for algorithm, config in variants
    ]


def throughput_gain_pct(sched: SimulationResult, base: SimulationResult) -> float:
    """Relative throughput gain of a scheduled run over a baseline run, in
    percent (the quantity plotted in Fig. 7, 9, 10, 13)."""
    return (sched.throughput - base.throughput) / base.throughput * 100.0


def speedup_vs_baseline(
    model: Union[str, ModelIR],
    spec: ClusterSpec,
    *,
    algorithm: str = "tic",
    platform: Union[str, Platform] = "envG",
    config: Optional[SimConfig] = None,
    batch_factor: float = 1.0,
) -> tuple[float, SimulationResult, SimulationResult]:
    """Throughput gain of ``algorithm`` over the no-scheduling baseline, in
    percent (the quantity plotted in Fig. 7, 9, 10, 13)."""
    base, sched = simulate_cell_group(
        model, spec, [("baseline", config), (algorithm, config)],
        platform=platform, batch_factor=batch_factor,
    )
    return throughput_gain_pct(sched, base), sched, base
