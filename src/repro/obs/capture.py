"""End-to-end trace capture: scenario name -> one traced iteration.

:func:`capture_trace` is the programmatic body of the ``tictac-repro
trace`` subcommand: resolve a registered scenario, call its ``cells``
function — the cells its analysis sweeps, in sweep order — pick one
cell, and simulate a single iteration of it with ``SimConfig(trace=True)``
through the sweep's own seam (:func:`repro.sim.runner.compile_group`,
:func:`~repro.sim.runner.bind_variant`) — no sweep pool, no cache —
returning the joined :class:`~repro.obs.trace.Trace` plus the cell it
came from. The traced iteration is bit-identical to the same iteration
of a full scenario run; tracing only *adds* event streams.
``tests/obs/test_trace_parity.py`` pins that for wizard cells, and
``tests/api/test_api.py::test_cells_are_what_the_analysis_sweeps`` that
every analysis sweeps exactly its scenario's ``cells``.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Union


class TraceCapture(NamedTuple):
    """What :func:`capture_trace` returns: the reduced trace, the cell
    that produced it and the iteration index traced."""

    trace: object
    cell: object
    iteration: int


def scenario_cells(run) -> list:
    """The cells a :class:`~repro.api.engine.ScenarioRun`'s scenario
    sweeps, in sweep order: ``scenario.cells(run)``, or ``[]`` for
    scenarios without a cell function (e.g. the SGD substrate study) —
    they have nothing to trace."""
    cells = run.scenario.cells
    return cells(run) if cells is not None else []


def trace_cell(
    cell,
    *,
    iteration: Optional[int] = None,
) -> TraceCapture:
    """Trace one iteration of one :class:`~repro.sweep.spec.SimCell`.

    Binds the cell as the sweep does, with tracing forced on (no sweep
    pool, no cache; the graph and wizard memos still apply).
    ``iteration`` defaults to the first measured index
    (``config.warmup``).
    """
    from ..sim.runner import bind_variant, compile_group
    from .trace import Trace

    cfg = cell.config.with_(trace=True)
    if iteration is None:
        iteration = cfg.warmup
    ir, core = compile_group(
        cell.model, cell.spec, platform=cell.platform, batch_factor=cell.batch_factor
    )
    variant = bind_variant(ir, cell.spec, core, cell.algorithm, cfg)
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

    ``cell_index`` selects among the scenario's cells (default: the
    first); ``iteration`` defaults to the first *measured* iteration
    (index ``warmup``); remaining keyword arguments rebind scenario
    parameters as :func:`~repro.api.engine.execute_scenario` would.

    Raises ``ValueError`` for scenarios that expand to no simulation
    cells, listing the traceable ones, and for a ``cell_index`` outside
    ``0..n-1``, naming that range.
    """
    from ..api import registry
    from ..api.context import SCALES, Context
    from ..api.engine import ScenarioRun

    if isinstance(scenario, str):
        scenario = registry.scenario(scenario)
    params = scenario.bind(**overrides)
    ctx = Context(scale=SCALES[scale], seed=seed, verbose=False)
    cells = scenario_cells(ScenarioRun(ctx=ctx, scenario=scenario, params=params))
    if not cells:
        traceable = [
            sc.name for sc in registry.iter_scenarios() if sc.cells is not None
        ]
        raise ValueError(
            f"scenario {scenario.name!r} expands to no simulation cells; "
            f"traceable scenarios: {traceable}"
        )
    if not 0 <= cell_index < len(cells):
        raise ValueError(
            f"cell {cell_index} is out of range: scenario "
            f"{scenario.name!r} has {len(cells)} cells, 0..{len(cells) - 1}"
        )
    return trace_cell(cells[cell_index], iteration=iteration)
