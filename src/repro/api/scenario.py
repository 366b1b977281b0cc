"""Scenario descriptions, validated at construction.

A :class:`Scenario` is a name, its outputs, default parameters and two
functions of a :class:`~repro.api.engine.ScenarioRun`:

* ``analyze`` — the study itself: build cells/tasks, run them on the
  context's shared sweep runner and return the scenario's tables;
* ``cells`` (optional) — the :class:`~repro.sweep.spec.SimCell` list the
  analysis sweeps, in sweep order. ``tictac-repro trace`` picks the cell
  it traces from it; scenarios without one have nothing to trace.

Construction validates the communication backends against the
:mod:`repro.backends` registry; the grid axes are checked by the
:class:`~repro.sweep.spec.GridSpec` a cell function builds, and
:meth:`Scenario.bind` checks ``model``/``algorithm`` overrides — so a
typo fails with the accepted values spelled out and the nearest names
suggested, not deep inside a sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from ..core.wizard import ALGORITHMS
from ..models.zoo import MODELS
from ..registry import did_you_mean

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sweep.spec import SimCell
    from .engine import ScenarioRun
    from .resultset import Report


class ScenarioError(ValueError):
    """A scenario definition (or parameter override) failed validation."""


def _validate_backends(backends: tuple[str, ...]) -> None:
    from ..backends import backends as comm_backends

    known = comm_backends()
    for name in backends:
        if name not in known:
            raise ScenarioError(
                f"unknown communication backend {name!r}; registered: "
                f"{sorted(known)}" + did_you_mean(name, known)
            )


@dataclass(frozen=True)
class Scenario:
    """One named study (a table/figure of the paper, or an extension).
    See the module docstring."""

    name: str
    title: str
    #: primary CSV stem — ``ResultSet.save`` writes ``<output>.csv``.
    output: str
    #: the analysis: runs the study and returns its tables.
    analyze: Callable[["ScenarioRun"], "Report"]
    #: communication backends exercised (registry-validated; reported
    #: in ``Provenance.backends``).
    backends: tuple[str, ...] = ("ps",)
    #: the cells ``analyze`` sweeps, in sweep order (what ``trace`` picks
    #: from); ``None`` for scenarios that sweep no plain cells.
    cells: Optional[Callable[["ScenarioRun"], list["SimCell"]]] = None
    #: default parameters; ``session.run(name, **overrides)`` rebinds.
    params: tuple[tuple[str, object], ...] = ()
    #: auxiliary output stems the analysis emits as extra tables.
    aux_outputs: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        _validate_backends(self.backends)

    # -- parameters -----------------------------------------------------
    def bind(self, **overrides) -> dict:
        """Merge caller overrides over the declared defaults. Unknown
        keys fail with the accepted names; ``model`` and ``algorithm``
        values are checked against the zoo and the wizard."""
        params = dict(self.params)
        unknown = sorted(set(overrides) - set(params))
        if unknown:
            raise ScenarioError(
                f"scenario {self.name!r} accepts no parameter(s) "
                f"{unknown}; accepted: {sorted(params) or '(none)'}"
            )
        params.update(overrides)
        for key, known in (("model", MODELS), ("algorithm", ALGORITHMS)):
            if key in params and params[key] not in known:
                raise ScenarioError(
                    f"scenario {self.name!r} param {key!r}: unknown {key} "
                    f"{params[key]!r}; one of {list(known)}"
                    + did_you_mean(params[key], known)
                )
        return params
