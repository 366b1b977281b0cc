"""The scenario registry: names -> declarative scenario definitions.

Two registries live here:

* **scenarios** — :class:`~repro.api.scenario.Scenario` objects by name,
  in presentation order (the order ``tictac-repro all`` runs). The
  built-in definitions in :mod:`repro.api.scenarios` load lazily on
  first lookup; third-party code extends the set with
  :func:`register_scenario`.
* **analyses** — named post-processing callbacks
  (``Callable[[ScenarioRun], Report]``). A scenario references its
  callback *by name* so scenario objects stay declarative data; the
  callback owns whatever per-scenario work is not expressible as a grid
  (Fig. 12's consistency statistics, the all-reduce analytic-bound
  check, Table 1's model census, ...).

Both are :class:`~repro.registry.Registry` tables: unknown names raise
:class:`UnknownScenarioError` / :class:`UnknownAnalysisError` with
near-match suggestions — the CLI surfaces these verbatim.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterator

from ..registry import Registry, UnknownNameError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .scenario import Scenario


class UnknownScenarioError(UnknownNameError):
    """Lookup of a scenario name that is not registered."""


class UnknownAnalysisError(UnknownNameError):
    """A scenario referenced an analysis callback that is not registered."""


_SCENARIOS: Registry = Registry("scenario", UnknownScenarioError)
_ANALYSES: Registry = Registry("analysis callback", UnknownAnalysisError)
_defaults_loaded = False


def _ensure_defaults() -> None:
    global _defaults_loaded
    if _defaults_loaded:
        return
    _defaults_loaded = True  # set first: the imports below re-enter us
    from . import scenarios  # noqa: F401 — registers the built-ins
    from . import jobmix_scenarios  # noqa: F401 — multi-job studies
    # replay_scenarios is imported by repro.api.__init__ AFTER the two
    # above finish (importing it here would execute it mid-scenarios
    # import and put cluster_day ahead of the built-ins); every path to
    # this registry runs the package __init__ first, so it is always
    # registered by the time a lookup happens.


# ----------------------------------------------------------------------
# Analysis callbacks
# ----------------------------------------------------------------------

def register_analysis(name: str) -> Callable[[Callable], Callable]:
    """Decorator: register a named analysis callback.

    The callback receives a :class:`~repro.api.engine.ScenarioRun` and
    returns a :class:`~repro.api.resultset.Report`. Later registrations
    replace earlier ones (deliberate overrides only).
    """

    def register(fn: Callable) -> Callable:
        _ANALYSES[name] = fn
        return fn

    return register


def analysis(name: str) -> Callable:
    """Look an analysis callback up by name."""
    _ensure_defaults()
    return _ANALYSES[name]


def has_analysis(name: str) -> bool:
    """Registration check used by ``Scenario`` validation. Loads the
    built-in callbacks first so a fresh process can reference them —
    safe while :mod:`repro.api.scenarios` is itself mid-import
    (callbacks register above their scenarios, and ``_ensure_defaults``
    flips its flag before importing, so the re-entrant call no-ops)."""
    _ensure_defaults()
    return name in _ANALYSES


def analysis_names() -> tuple[str, ...]:
    _ensure_defaults()
    return tuple(sorted(_ANALYSES))


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------

def register_scenario(sc: "Scenario") -> "Scenario":
    """Register a scenario under its name (re-registration replaces, so a
    tweaked variant can shadow a built-in). Returns it for chaining."""
    _SCENARIOS[sc.name] = sc
    return sc


def scenario(name: str) -> "Scenario":
    """Look a scenario up by name; unknown names raise
    :class:`UnknownScenarioError` with near-match suggestions."""
    _ensure_defaults()
    return _SCENARIOS[name]


def scenario_names() -> tuple[str, ...]:
    """All registered scenario names, in registration (presentation)
    order — the order ``tictac-repro all`` executes."""
    _ensure_defaults()
    return tuple(_SCENARIOS)


def iter_scenarios() -> Iterator["Scenario"]:
    _ensure_defaults()
    yield from _SCENARIOS.values()
