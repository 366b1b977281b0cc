"""The one generic scenario executor.

Every scenario — paper figure, table, or extension study — runs through
:func:`execute_scenario`:

1. bind parameters (defaults + caller overrides, validated);
2. call the scenario's ``analyze`` function with a :class:`ScenarioRun`;
   it sweeps its cells/tasks on the context's shared
   :class:`~repro.sweep.SweepRunner` and returns the tables/text/extras;
3. wrap everything in a :class:`~repro.api.resultset.ResultSet` with
   provenance (engine revision, scale, seed, cache hit/miss deltas,
   wall time).

The CLI is a loop over it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Union

from ..obs.telemetry import memo_counters
from ..sim.engine import ENGINE_REV
from . import registry
from .context import Context
from .resultset import Provenance, Report, ResultSet
from .scenario import Scenario


@dataclass
class ScenarioRun:
    """Everything a scenario's ``analyze``/``cells`` function may touch:
    the execution context (scale, seed, sweep runner, logging) and the
    scenario with its bound parameters."""

    ctx: Context
    scenario: Scenario
    params: dict

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

    report: Report = scenario.analyze(
        ScenarioRun(ctx=ctx, scenario=scenario, params=params)
    )

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
