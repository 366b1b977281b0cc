"""The one generic scenario executor.

Every scenario — paper figure, table, or extension study — runs through
:func:`execute_scenario`:

1. bind parameters (defaults + caller overrides, validated);
2. if the scenario declares a :class:`~repro.api.scenario.Grid`, resolve
   it against the context's scale and sweep it (speedup pairs or plain
   cells) on the context's shared :class:`~repro.sweep.SweepRunner`;
3. hand the :class:`ScenarioRun` to the scenario's named analysis
   callback, which returns the tables/text/extras;
4. wrap everything in a :class:`~repro.api.resultset.ResultSet` with
   provenance (engine revision, scale, seed, cache hit/miss deltas,
   wall time).

The CLI is a loop over it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Union

from ..obs.telemetry import memo_counters
from ..sim.engine import ENGINE_REV
from ..sim.metrics import SimulationResult
from ..sweep.runner import Speedup
from ..sweep.spec import SimCell
from . import registry
from .context import Context
from .resultset import Provenance, Report, ResultSet
from .scenario import Scenario


@dataclass
class ScenarioRun:
    """Everything an analysis callback may touch: the execution context
    (scale, seed, sweep runner, logging), the scenario with its bound
    parameters, and — for grid scenarios — the resolved cells with their
    sweep results."""

    ctx: Context
    scenario: Scenario
    params: dict
    cells: list[SimCell] = field(default_factory=list)
    #: populated when ``grid.compare_baseline`` (one per cell) ...
    speedups: Optional[list[Speedup]] = None
    #: ... or plain results otherwise (also one per cell).
    results: Optional[list[SimulationResult]] = None

    @property
    def scale(self):
        return self.ctx.scale

    @property
    def sweep(self):
        return self.ctx.sweep

    @property
    def seed(self) -> int:
        return self.ctx.seed

    def sim_config(self, **overrides):
        return self.ctx.sim_config(**overrides)

    def log(self, message: str) -> None:
        self.ctx.log(message)

    def param(self, name: str):
        return self.params[name]


def _quarantined_row(cell, error: str) -> dict:
    """A tidy row identifying one quarantined cell: the coordinates plus
    the bound parameter values (cluster shape, workload, batch factor,
    seed) that distinguish it from its grid siblings — without them a
    replay/sweep log's quarantine report cannot say *which* cell died."""
    spec = getattr(cell, "spec", None)
    config = getattr(cell, "config", None)
    return {
        "model": getattr(cell, "model", ""),
        "algorithm": getattr(cell, "algorithm", ""),
        "platform": getattr(cell, "platform", ""),
        "workers": getattr(spec, "n_workers", ""),
        "ps": getattr(spec, "n_ps", ""),
        "workload": getattr(spec, "workload", ""),
        "placement": getattr(spec, "placement", ""),
        "batch_factor": getattr(cell, "batch_factor", ""),
        "seed": getattr(config, "seed", ""),
        "error": error,
    }


def execute_scenario(
    ctx: Context, scenario: Union[str, Scenario], /, **overrides
) -> ResultSet:
    """Run one scenario against ``ctx`` and return its ResultSet (no CSV
    is written — call :meth:`~repro.api.resultset.ResultSet.save` for
    that)."""
    if isinstance(scenario, str):
        scenario = registry.scenario(scenario)
    t0 = time.perf_counter()
    params = scenario.bind(**overrides)
    stats_before = ctx.sweep.stats.as_dict()
    telemetry_before = ctx.sweep.telemetry.as_dict()
    memo_before = memo_counters()
    quarantine_before = len(getattr(ctx.sweep, "quarantined", ()))

    run = ScenarioRun(ctx=ctx, scenario=scenario, params=params)
    if scenario.grid is not None:
        run.cells = scenario.grid.resolve(ctx.scale, params, ctx.sim_config)
        if scenario.grid.compare_baseline:
            run.speedups = ctx.sweep.run_speedups(run.cells)
        else:
            run.results = ctx.sweep.run_cells(run.cells)

    report: Report = registry.analysis(scenario.analyze)(run)

    stats_after = ctx.sweep.stats.as_dict()
    # telemetry delta for this scenario: runner counters, on-disk cache
    # activity and the driver process's memo hits (see repro.obs.telemetry)
    telemetry = ctx.sweep.telemetry.delta_since(telemetry_before)
    for name, value in stats_after.items():
        d = value - stats_before[name]
        if d:
            telemetry[f"cache_{name}"] = float(d)
    for name, value in memo_counters().items():
        d = value - memo_before.get(name, 0.0)
        if d:
            telemetry[name] = d
    telemetry = dict(sorted(telemetry.items()))
    provenance = Provenance(
        scenario=scenario.name,
        scale=ctx.scale.name,
        seed=ctx.seed,
        jobs=ctx.jobs,
        engine_rev=ENGINE_REV,
        backends=scenario.backends,
        cache={k: stats_after[k] - stats_before[k] for k in stats_after},
        elapsed_s=time.perf_counter() - t0,
    )
    extras = dict(report.extras)
    # cells the resilient runner gave up on during THIS scenario: tidy
    # error rows so partial sweeps are inspectable instead of silent.
    lost = list(getattr(ctx.sweep, "quarantined", ()))[quarantine_before:]
    if lost:
        extras["quarantined"] = [_quarantined_row(cell, error) for cell, error in lost]
    result = ResultSet(
        name=scenario.output,
        scenario=scenario,
        rows=report.rows,
        text=report.text,
        tables=dict(report.tables),
        extras=extras,
        provenance=provenance,
        telemetry=telemetry,
    )
    ctx.log(report.text)
    ctx.log(
        f"[{scenario.output}] {len(result.rows)} rows "
        f"({provenance.elapsed_s:.1f}s)"
    )
    return result
