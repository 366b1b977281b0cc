"""Simulation entry points and the one seam from a cell to a simulation.

:func:`compile_group` builds a group's model IR and compiled core once;
:func:`bind_variant` binds one schedule (given, or the wizard's for an
algorithm name via :func:`prepare_schedule`) and config to that core.
Nothing else pairs an IR, a core and a schedule: the sweep's
:func:`simulate_cell_group`, :func:`simulate_cluster`, ``trace_cell``
and ``simulate_pipelined`` all go through them, and they look their
layers (``build_model`` ... ``summarize_iteration``) up on this module
at call time. Mirrors the paper's measurement protocol: discard warm-up
iterations, record the next N (§6 Setup: discard 2, record 10). Each
iteration is a pure function of ``(config.seed, index)``, so the
discarded indices are never simulated.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence, Union

from ..backends import MEMO_COUNTERS, build_comm_graph, prepare_comm_schedule
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
    seed: int = 0,
) -> Schedule:
    """Offline ordering-wizard pass for a cluster configuration (§5):
    build the reference worker partition, trace it for TAC's oracle,
    run the heuristic. ``'baseline'`` is no pass at all: it is the empty
    schedule. Anything else dispatches on the spec's backend, whose
    wizard memoizes within the process — see
    :data:`repro.backends.WIZARD_MEMO`."""
    if algorithm == "baseline":
        return Schedule("baseline")
    return prepare_comm_schedule(ir, spec, algorithm, platform, seed=seed)


def compile_group(
    model: Union[str, ModelIR],
    spec: ClusterSpec,
    *,
    platform: Union[str, Platform] = "envG",
    batch_factor: float = 1.0,
) -> tuple[ModelIR, CompiledCore]:
    """A group's model IR (built at the paper batch size x
    ``batch_factor`` unless given) and its compiled core on ``platform``.
    The cluster graph comes from the graph memo; treat it as read-only."""
    plat = PLATFORMS[platform] if isinstance(platform, str) else platform
    ir = model if isinstance(model, ModelIR) else build_model(model, batch_factor=batch_factor)
    return ir, CompiledCore(build_comm_graph(ir, spec), plat)


def bind_variant(
    ir: ModelIR,
    spec: ClusterSpec,
    core: CompiledCore,
    schedule: Union[str, Schedule],
    config: Optional[SimConfig] = None,
) -> SimVariant:
    """Bind one variant to ``core``: a given :class:`Schedule`, or the
    wizard's schedule for an algorithm name (seeded by ``config.seed``)."""
    cfg = config or SimConfig()
    if isinstance(schedule, str):
        schedule = prepare_schedule(ir, spec, schedule, core.platform, seed=cfg.seed)
    return SimVariant(core, schedule, cfg)


#: group variants served from an earlier variant's result (see
#: :func:`simulate_cell_group`), counted beside the memo counters.
MEMO_COUNTERS.setdefault("variant_memo_hits", 0)


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
    on one compiled core, use :func:`simulate_cell_group` (this is its
    one-variant case). ``spec`` selects the communication backend by
    type: a PS :class:`~repro.ps.cluster.ClusterSpec`, a collective
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
    variant = (schedule if schedule is not None else algorithm, config)
    return simulate_cell_group(
        model, spec, [variant], platform=platform, batch_factor=batch_factor
    )[0]


def _run_variant(ir: ModelIR, spec: ClusterSpec, sim: SimVariant) -> SimulationResult:
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
        platform=sim.core.platform.name,
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
    variants: Sequence[tuple[Union[str, Schedule], Optional[SimConfig]]],
    *,
    platform: Union[str, Platform] = "envG",
    batch_factor: float = 1.0,
) -> list[SimulationResult]:
    """Compile once, simulate many: :func:`compile_group` builds the
    model IR, the cluster graph AND the engine's
    :class:`~repro.sim.engine.CompiledCore` arrays a single time, then
    :func:`bind_variant` binds a lightweight
    :class:`~repro.sim.engine.SimVariant` per ``(schedule, config)``
    variant, where ``schedule`` is an algorithm name for the wizard or a
    given :class:`Schedule`. This is the sweep runner's unit of work — a
    grid's algorithms and iteration counts differ only in ``Schedule``
    and ``SimConfig``, so the core is never recompiled per cell. Each
    variant is still fully deterministic in its own config: the engine
    seeds from ``(config.seed, iteration)`` and never mutates the core or
    the cluster graph, so results are identical to separate one-shot
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
    ir, core = compile_group(model, spec, platform=platform, batch_factor=batch_factor)
    results: list[SimulationResult] = []
    seen: dict[tuple, SimulationResult] = {}
    first: Optional[SimVariant] = None  # keyed once a second variant arrives
    for schedule, config in variants:
        sim = bind_variant(ir, spec, core, schedule, config)
        if not results:
            first = sim
            results.append(_run_variant(ir, spec, sim))
            continue
        if first is not None:
            seen[first.config, first.lowering_digest()] = results[0]
            first = None
        key = (sim.config, sim.lowering_digest())
        earlier = seen.get(key)
        if earlier is None:
            result = seen[key] = _run_variant(ir, spec, sim)
        else:
            MEMO_COUNTERS["variant_memo_hits"] += 1
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
