"""End-to-end trace capture: scenario name -> one traced iteration.

:func:`capture_trace` is the programmatic body of the ``tictac-repro
trace`` subcommand: resolve a registered scenario, expand its grid (or
its job-mix's cell list) exactly as a run would, pick one cell, and
simulate a single iteration of it with ``SimConfig(trace=True)``
directly on a :class:`~repro.sim.engine.SimVariant` — no sweep pool, no
cache — returning the joined :class:`~repro.obs.trace.Trace` plus the
cell it came from. The traced iteration is bit-identical to the same
iteration of a full scenario run (same seed protocol, same schedule
memoization path); tracing only *adds* event streams.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Union


class TraceCapture(NamedTuple):
    """What :func:`capture_trace` returns: the reduced trace, the cell
    that produced it and the iteration index traced."""

    trace: object
    cell: object
    iteration: int


def scenario_cells(scenario, scale, params, make_config) -> list:
    """The cells a scenario would sweep, in sweep order.

    Grid scenarios expand their :class:`~repro.api.scenario.Grid`;
    job-mix scenarios expand their ``mix`` parameter's cell list.
    Scenarios that build no cells (e.g. the SGD substrate study) return
    ``[]`` — they have nothing to trace.
    """
    if scenario.grid is not None:
        return scenario.grid.resolve(scale, params, make_config)
    mix = params.get("mix")
    if mix is not None and hasattr(mix, "cells"):
        return mix.cells(make_config())
    return []


def trace_cell(
    cell,
    *,
    iteration: Optional[int] = None,
) -> TraceCapture:
    """Trace one iteration of one :class:`~repro.sweep.spec.SimCell`.

    Simulates the cell directly on a :class:`~repro.sim.engine.SimVariant`
    with tracing forced on (no sweep pool, no cache; the graph and
    wizard memos still apply). ``iteration`` defaults to the first
    measured index (``config.warmup``).
    """
    from ..backends import build_comm_graph, prepare_comm_schedule
    from ..core.schedules import Schedule
    from ..models import build_model
    from ..sim.engine import CompiledCore, SimVariant
    from ..timing import PLATFORMS
    from .trace import Trace

    cfg = cell.config.with_(trace=True)
    if iteration is None:
        iteration = cfg.warmup

    ir = build_model(cell.model, batch_factor=cell.batch_factor)
    plat = PLATFORMS[cell.platform]
    cluster = build_comm_graph(ir, cell.spec)
    core = CompiledCore(cluster, plat)
    if cell.algorithm == "baseline":
        schedule = Schedule("baseline")
    else:
        schedule = prepare_comm_schedule(
            ir, cell.spec, cell.algorithm, plat, seed=cfg.seed
        )
    variant = SimVariant(core, schedule, cfg)
    record = variant.run_iteration(iteration)
    return TraceCapture(
        trace=Trace.from_record(variant, record),
        cell=cell,
        iteration=iteration,
    )


def capture_trace(
    scenario: Union[str, object] = "headline",
    *,
    scale: str = "quick",
    seed: int = 0,
    cell_index: int = 0,
    iteration: Optional[int] = None,
    **overrides,
) -> TraceCapture:
    """Trace one iteration of one cell of a registered scenario.

    ``cell_index`` selects among the scenario's resolved cells (default:
    the first); ``iteration`` defaults to the first *measured* iteration
    (index ``warmup``); remaining keyword arguments rebind scenario
    parameters as ``Session.run`` would.

    Raises ``ValueError`` for scenarios that expand to no simulation
    cells, listing the traceable ones.
    """
    from ..api import registry
    from ..api.context import SCALES, Context

    if isinstance(scenario, str):
        scenario = registry.scenario(scenario)
    params = scenario.bind(**overrides)
    ctx = Context(scale=SCALES[scale], seed=seed, verbose=False)
    cells = scenario_cells(scenario, ctx.scale, params, ctx.sim_config)
    if not cells:
        traceable = [
            name
            for name in registry.scenario_names()
            if scenario_cells(
                registry.scenario(name),
                ctx.scale,
                dict(registry.scenario(name).params),
                ctx.sim_config,
            )
        ]
        raise ValueError(
            f"scenario {scenario.name!r} expands to no simulation cells; "
            f"traceable scenarios: {traceable}"
        )
    cell = cells[cell_index % len(cells)]
    return trace_cell(cell, iteration=iteration)
