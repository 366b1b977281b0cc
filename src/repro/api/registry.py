"""The scenario registry: names -> :class:`~repro.api.scenario.Scenario`.

Scenarios are held in presentation order (the order ``tictac-repro all``
runs). :mod:`repro.api` imports the built-in definitions —
:mod:`~repro.api.scenarios`, :mod:`~repro.api.jobmix_scenarios`, then
:mod:`~repro.api.replay_scenarios` — before any lookup can run;
third-party code extends the set with :func:`register_scenario`.

The table is a :class:`~repro.registry.Registry`: unknown names raise
:class:`UnknownScenarioError` with near-match suggestions — the CLI
surfaces these verbatim.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from ..registry import Registry, UnknownNameError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .scenario import Scenario


class UnknownScenarioError(UnknownNameError):
    """Lookup of a scenario name that is not registered."""


_SCENARIOS: Registry = Registry("scenario", UnknownScenarioError)


def register_scenario(sc: "Scenario") -> "Scenario":
    """Register a scenario under its name (re-registration replaces, so a
    tweaked variant can shadow a built-in). Returns it for chaining."""
    _SCENARIOS[sc.name] = sc
    return sc


def scenario(name: str) -> "Scenario":
    """Look a scenario up by name; unknown names raise
    :class:`UnknownScenarioError` with near-match suggestions."""
    return _SCENARIOS[name]


def scenario_names() -> tuple[str, ...]:
    """All registered scenario names, in registration (presentation)
    order — the order ``tictac-repro all`` executes."""
    return tuple(_SCENARIOS)


def iter_scenarios() -> Iterator["Scenario"]:
    yield from _SCENARIOS.values()
