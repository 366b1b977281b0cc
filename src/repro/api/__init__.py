"""repro.api — the stable programmatic facade over the whole pipeline.

Three nouns:

* :class:`Context` — owns execution (scale, seed, worker pool, on-disk
  sweep cache); a context manager built by :func:`make_context` and
  passed to :func:`execute_scenario`.
* :class:`Scenario` — one study: a name, its outputs and parameters, an
  ``analyze`` function that runs it and an optional ``cells`` function
  naming the cells it sweeps. The built-in registry covers every
  table/figure of the paper (``repro.api.scenario_names()``).
* :class:`ResultSet` — typed results: rows + schema + provenance
  (engine revision, cache hits), with ``save``/``to_table``/``frame``.
  Results are values; persistence is explicit.

Quick start::

    from repro.api import execute_scenario, make_context

    with make_context(full=False) as ctx:
        rs = execute_scenario(ctx, "fig7")
        print(rs.to_table())
        rs.save(ctx.results_dir)

Extending: register a :class:`Scenario` holding your analysis function
with :func:`register_scenario`, and it is immediately runnable by name —
from :func:`execute_scenario` and from the ``tictac-repro`` CLI alike.
"""

from .context import (
    FIG7_MODELS,
    FULL,
    QUICK,
    QUICK_MODELS,
    SCALES,
    Context,
    Scale,
    make_context,
)
from .engine import ScenarioRun, execute_scenario

# The built-in scenarios register on import; import order is
# presentation order (the order ``tictac-repro all`` runs).
from . import scenarios, jobmix_scenarios, replay_scenarios
from .jobmix_scenarios import JobMixScenario
from .replay_scenarios import ReplayScenario
from .registry import (
    UnknownScenarioError,
    iter_scenarios,
    register_scenario,
    scenario,
    scenario_names,
)
from .resultset import Provenance, Report, ResultSet
from .scenario import Scenario, ScenarioError

__all__ = [
    "Context",
    "FIG7_MODELS",
    "FULL",
    "JobMixScenario",
    "Provenance",
    "QUICK",
    "QUICK_MODELS",
    "ReplayScenario",
    "Report",
    "ResultSet",
    "SCALES",
    "Scale",
    "Scenario",
    "ScenarioError",
    "ScenarioRun",
    "UnknownScenarioError",
    "execute_scenario",
    "iter_scenarios",
    "make_context",
    "register_scenario",
    "scenario",
    "scenario_names",
]
