"""repro.api — the stable programmatic facade over the whole pipeline.

Three nouns:

* :class:`Session` — owns execution (scale, worker pool, on-disk sweep
  cache); a context manager.
* :class:`Scenario` — a declarative, registry-validated description of a
  study: backends x models x workers x algorithms x SimConfig knobs,
  plus a named analysis callback. The built-in registry covers every
  table/figure of the paper (``repro.api.scenario_names()``).
* :class:`ResultSet` — typed results: rows + schema + provenance
  (engine revision, cache hits), with ``save``/``to_table``/``frame``.
  Results are values; persistence is explicit.

Quick start::

    from repro.api import Session

    with Session(scale="quick") as session:
        rs = session.run("fig7")
        print(rs.to_table())
        rs.save("results")

Extending: define callbacks with :func:`register_analysis`, register
:class:`Scenario` objects with :func:`register_scenario`, and they are
immediately runnable by name — from :class:`Session` and from the
``tictac-repro`` CLI alike.
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
from .jobmix_scenarios import JobMixScenario

# Deliberately after jobmix_scenarios (whose import pulls the built-in
# scenarios in): registration order is presentation order, and the
# replay studies come last.
from .replay_scenarios import ReplayScenario
from .registry import (
    UnknownAnalysisError,
    UnknownScenarioError,
    analysis,
    analysis_names,
    iter_scenarios,
    register_analysis,
    register_scenario,
    scenario,
    scenario_names,
)
from .resultset import Provenance, Report, ResultSet
from .scenario import Grid, Scenario, ScenarioError
from .session import Session

__all__ = [
    "Context",
    "FIG7_MODELS",
    "FULL",
    "Grid",
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
    "Session",
    "UnknownAnalysisError",
    "UnknownScenarioError",
    "analysis",
    "analysis_names",
    "execute_scenario",
    "iter_scenarios",
    "make_context",
    "register_analysis",
    "register_scenario",
    "scenario",
    "scenario_names",
]
