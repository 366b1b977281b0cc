"""High-level simulation entry points.

:func:`simulate_cluster` is the one call experiments make: model name ->
schedule (via the ordering wizard) -> cluster graph -> compiled simulation
-> recorded iterations with the paper's metrics. Mirrors the paper's
measurement protocol: discard warm-up iterations, record the next N
(§6 Setup: discard 2, record 10). Every iteration is a pure function of
``(config.seed, index)``, so the discarded indices are skipped rather
than simulated: the recorded ones are ``warmup .. warmup+iterations-1``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence, Union

from ..backends import build_comm_graph, prepare_comm_schedule
from ..core.schedules import Schedule
from ..models import build_model
from ..models.ir import ModelIR
from ..ps.cluster import ClusterSpec
from ..timing import PLATFORMS, Platform
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


#: this process's count of group variants served from an earlier
#: variant's result (see :func:`simulate_cell_group`), read into run
#: telemetry by :func:`repro.obs.telemetry.memo_counters` beside the
#: graph and wizard memo counters.
_variant_memo_stats = {"variant_memo_hits": 0}


def variant_memo_stats() -> dict:
    """Snapshot of this process's variant-reuse counter."""
    return dict(_variant_memo_stats)


def simulate_cluster(
    model: Union[str, ModelIR],
    spec: ClusterSpec,
    *,
    algorithm: str = "baseline",
    schedule: Optional[Schedule] = None,
    platform: Union[str, Platform] = "envG",
    config: Optional[SimConfig] = None,
    batch_factor: float = 1.0,
) -> SimulationResult:
    """Simulate ``config.iterations`` iterations of one configuration.

    Either pass a precomputed ``schedule`` or an ``algorithm`` name for the
    wizard ('baseline', 'tic', 'tac', 'tic_plus', 'random', 'layerwise',
    'reverse_layerwise'); to sweep algorithms over one configuration
    on one compiled core, use :func:`simulate_cell_group`. ``spec``
    selects the communication backend by type: a PS
    :class:`~repro.ps.cluster.ClusterSpec`, a collective
    :class:`~repro.collectives.CollectiveSpec`, or a multi-job
    :class:`~repro.sim.jobmix.JobMixSpec` (several jobs placed on
    shared hosts; per-job completions land in
    ``IterationResult.job_finish``).

    The result depends on the schedule only through its *lowering* onto
    the core (:meth:`~repro.sim.engine.SimVariant.lowering_digest`: the
    priority and gate arrays, the channel count and the out-of-order
    audit's ranks). Schedules that lower equally under one config give
    the same numbers, differing only in ``algorithm``;
    :func:`simulate_cell_group` relies on this to simulate each distinct
    ``(config, lowering)`` of a group once.
    """
    plat = PLATFORMS[platform] if isinstance(platform, str) else platform
    cfg = config or SimConfig()
    ir = model if isinstance(model, ModelIR) else build_model(model, batch_factor=batch_factor)
    if schedule is None:
        schedule = _wizard_schedule(ir, spec, algorithm, plat, cfg)
    core = CompiledCore(build_comm_graph(ir, spec), plat)
    return _run_variant(ir, spec, plat, SimVariant(core, schedule, cfg))


def _wizard_schedule(
    ir: ModelIR, spec: ClusterSpec, algorithm: str, plat: Platform, cfg: SimConfig
) -> Schedule:
    if algorithm == "baseline":
        return Schedule("baseline")
    return prepare_schedule(ir, spec, algorithm, plat, seed=cfg.seed)


def _run_variant(
    ir: ModelIR, spec: ClusterSpec, plat: Platform, sim: SimVariant
) -> SimulationResult:
    """Run and summarize ``sim.config``'s recorded iterations.

    These are indices ``cfg.warmup .. cfg.warmup + cfg.iterations - 1``.
    The engine seeds each index afresh and carries no state from one
    iteration to the next, so the warm-up indices before them are never
    simulated: no output reads them, and skipping them leaves every
    recorded number unchanged."""
    cfg = sim.config
    result = SimulationResult(
        model=ir.name,
        batch_size=ir.batch_size,
        n_workers=spec.n_workers,
        n_ps=spec.n_ps,
        workload=spec.workload,
        algorithm=sim.schedule.algorithm,
        platform=plat.name,
        n_params=ir.n_param_tensors,
    )
    # iter_iterations streams records (slabbed batch setup inside): each
    # is summarized and dropped, so 1000-iteration protocols stay O(n).
    for record in sim.iter_iterations(cfg.warmup, cfg.iterations):
        result.iterations.append(summarize_iteration(sim, record))
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
    :func:`simulate_cluster` calls.

    Each distinct ``(config, lowering)`` is simulated once. The key is
    the variant's :class:`SimConfig` (by equality, so a different seed
    or ``trace`` flag never shares) plus its
    :meth:`~repro.sim.engine.SimVariant.lowering_digest`. A later variant
    with an equal key gets a copy of the earlier result, relabelled with
    its own ``schedule.algorithm`` and given a fresh ``iterations`` list
    (the :class:`IterationResult` entries are shared);
    each such reuse adds one to ``variant_memo_hits``. Keys are computed
    only once a group reaches its second variant, so single-variant
    groups pay nothing."""
    plat = PLATFORMS[platform] if isinstance(platform, str) else platform
    ir = model if isinstance(model, ModelIR) else build_model(model, batch_factor=batch_factor)
    cluster = build_comm_graph(ir, spec)
    core = CompiledCore(cluster, plat)
    results: list[SimulationResult] = []
    seen: dict[tuple, SimulationResult] = {}
    first: Optional[SimVariant] = None  # keyed once a second variant arrives
    for algorithm, config in variants:
        cfg = config or SimConfig()
        sim = SimVariant(core, _wizard_schedule(ir, spec, algorithm, plat, cfg), cfg)
        if not results:
            first = sim
            results.append(_run_variant(ir, spec, plat, sim))
            continue
        if first is not None:
            seen[first.config, first.lowering_digest()] = results[0]
            first = None
        key = (cfg, sim.lowering_digest())
        earlier = seen.get(key)
        if earlier is None:
            result = seen[key] = _run_variant(ir, spec, plat, sim)
        else:
            _variant_memo_stats["variant_memo_hits"] += 1
            result = replace(
                earlier,
                algorithm=sim.schedule.algorithm,
                iterations=list(earlier.iterations),
            )
        results.append(result)
    return results


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
