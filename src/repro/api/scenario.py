"""Declarative scenario descriptions, validated at construction.

A :class:`Scenario` is *data*: which communication backends a study
touches, an optional :class:`Grid` (the declarative slice of the
evaluation grid the generic engine expands and sweeps), default
parameters callers may override, and the *name* of the analysis callback
that turns sweep results into the scenario's tables. Construction
validates every name against the live registries — the
:mod:`repro.backends` registry, the :mod:`repro.timing` platform table,
the model zoo and the wizard's algorithm list — so a typo fails at
import/definition time with the accepted values spelled out and the
nearest names suggested, not deep inside a sweep.

Axis values understand three sentinel forms so one definition serves
every scale:

* ``"scale"`` — resolve from the run's :class:`~repro.api.context.Scale`
  (``models``/``workers``/``ps`` axes);
* ``"envc"`` / ``"zoo"`` — the Fig. 13 envC model subset / every Table 1
  model;
* ``"$name"`` — resolve from the scenario's (possibly overridden)
  parameters, e.g. ``algorithms=("$algorithm",)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional

from ..core.wizard import ALGORITHMS
from ..models import ENVC_MODEL_NAMES, MODEL_NAMES
from ..models.zoo import MODELS
from ..registry import did_you_mean
from ..sweep.spec import GridSpec, SimCell
from ..timing import PLATFORMS
from . import registry
from .context import Scale


class ScenarioError(ValueError):
    """A scenario definition (or parameter override) failed validation."""


_MODEL_SENTINELS = ("scale", "envc", "zoo")


def _interp(value, params: Mapping[str, object]):
    """Resolve a ``"$name"`` axis entry from the bound parameters."""
    if isinstance(value, str) and value.startswith("$"):
        name = value[1:]
        try:
            return params[name]
        except KeyError:
            raise ScenarioError(
                f"axis references parameter {name!r} which the scenario "
                f"does not declare (params: {sorted(params)})"
            ) from None
    return value


def _as_tuple(value) -> tuple:
    if isinstance(value, (list, tuple)):
        return tuple(value)
    return (value,)


@dataclass(frozen=True)
class Grid:
    """Declarative slice of the evaluation grid.

    Resolved against a (scale, params) pair into the exact
    :class:`~repro.sweep.spec.SimCell` list the legacy drivers built —
    same axes, same :class:`~repro.sweep.spec.GridSpec` nesting order —
    so results and CSVs are byte-identical through the scenario path.

    ``ps`` accepts ``"ratio"`` (Fig. 7's PS:workers = 1:4 policy),
    ``"scale"``, an int or a tuple. ``compare_baseline`` selects
    ``run_speedups`` (each cell paired with its baseline twin) over plain
    ``run_cells``. ``cap_workers_quick`` reproduces Fig. 9's quirk of
    clamping its worker count to the quick scale's maximum — only at the
    named ``quick`` scale, exactly as the legacy driver did.
    """

    models: object = "scale"
    workloads: tuple[str, ...] = ("training",)
    workers: object = "scale"
    ps: object = "ratio"
    algorithms: tuple[str, ...] = ("baseline",)
    platforms: tuple[str, ...] = ("envG",)
    batch_factors: tuple[float, ...] = (1.0,)
    sharding: str = "greedy"
    #: SimConfig overrides applied on top of the context's defaults;
    #: values may be ``"$param"`` references.
    sim: tuple[tuple[str, object], ...] = ()
    compare_baseline: bool = True
    cap_workers_quick: bool = False

    # -- resolution -----------------------------------------------------
    def resolve_models(self, scale: Scale, params: Mapping) -> tuple[str, ...]:
        models = _interp(self.models, params)
        if models == "scale":
            return scale.models
        if models == "envc":
            return ENVC_MODEL_NAMES
        if models == "zoo":
            return MODEL_NAMES
        return _as_tuple(models)

    def resolve_workers(self, scale: Scale, params: Mapping) -> tuple[int, ...]:
        workers = _interp(self.workers, params)
        counts = scale.worker_counts if workers == "scale" else _as_tuple(workers)
        if self.cap_workers_quick and scale.name == "quick":
            cap = max(scale.worker_counts)
            counts = tuple(min(w, cap) for w in counts)
        return counts

    def resolve(
        self, scale: Scale, params: Mapping, make_config: Callable
    ) -> list[SimCell]:
        """Expand to cells: ``make_config(**sim_overrides)`` builds the
        shared :class:`~repro.sim.config.SimConfig` (normally
        ``Context.sim_config``)."""
        ps = _interp(self.ps, params)
        spec = GridSpec(
            models=self.resolve_models(scale, params),
            workloads=self.workloads,
            worker_counts=self.resolve_workers(scale, params),
            ps_counts=(
                scale.ps_counts if ps == "scale"
                else (1,) if ps == "ratio"  # unused: ps_from_workers wins
                else _as_tuple(ps)
            ),
            ps_from_workers=ps == "ratio",
            algorithms=tuple(_interp(a, params) for a in self.algorithms),
            platforms=self.platforms,
            batch_factors=self.batch_factors,
            sharding=self.sharding,
        )
        overrides = {k: _interp(v, params) for k, v in self.sim}
        return spec.cells(make_config(**overrides))

    # -- validation -----------------------------------------------------
    def validate(self, params: Mapping) -> None:
        _validate_models(self.models, where="grid.models")
        _validate_platforms(self.platforms, where="grid.platforms")
        for algorithm in self.algorithms:
            if isinstance(algorithm, str) and algorithm.startswith("$"):
                continue
            _validate_algorithm(algorithm, where="grid.algorithms")
        for axis, value in (
            ("models", self.models),
            ("workers", self.workers),
            ("ps", self.ps),
            ("algorithms", self.algorithms),
        ):
            for entry in _as_tuple(value):
                if isinstance(entry, str) and entry.startswith("$"):
                    if entry[1:] not in params:
                        raise ScenarioError(
                            f"grid.{axis} references parameter "
                            f"{entry[1:]!r} which the scenario does not "
                            f"declare (params: {sorted(params)})"
                        )


def _validate_models(models, *, where: str) -> None:
    if isinstance(models, str):
        if models.startswith("$") or models in _MODEL_SENTINELS:
            return
        models = (models,)
    for name in _as_tuple(models):
        if name not in MODELS:
            raise ScenarioError(
                f"{where}: unknown model {name!r}; known models: "
                f"{list(MODELS)}" + did_you_mean(name, MODELS)
            )


def _validate_platforms(platforms, *, where: str) -> None:
    for name in _as_tuple(platforms):
        if name not in PLATFORMS:
            raise ScenarioError(
                f"{where}: unknown platform {name!r}; available: "
                f"{sorted(PLATFORMS)}" + did_you_mean(name, PLATFORMS)
            )


def _validate_algorithm(name: str, *, where: str) -> None:
    if name not in ALGORITHMS:
        raise ScenarioError(
            f"{where}: unknown algorithm {name!r}; one of {ALGORITHMS}"
            + did_you_mean(name, ALGORITHMS)
        )


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
    """One named, declarative study (a table/figure of the paper, or an
    extension). See the module docstring; construction validates every
    referenced name against the live registries."""

    name: str
    title: str
    #: primary CSV stem — ``ResultSet.save`` writes ``<output>.csv``.
    output: str
    #: name of the registered analysis callback executing/tabulating it.
    analyze: str
    #: communication backends exercised (registry-validated; reported
    #: in ``Provenance.backends``).
    backends: tuple[str, ...] = ("ps",)
    grid: Optional[Grid] = None
    #: default parameters; ``session.run(name, **overrides)`` rebinds.
    params: tuple[tuple[str, object], ...] = ()
    #: auxiliary output stems the analysis emits as extra tables.
    aux_outputs: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        params = dict(self.params)
        _validate_backends(self.backends)
        if not registry.has_analysis(self.analyze):
            raise ScenarioError(
                f"scenario {self.name!r} references unregistered analysis "
                f"callback {self.analyze!r}; register it with "
                f"repro.api.register_analysis({self.analyze!r}) first"
            )
        if self.grid is not None:
            self.grid.validate(params)

    # -- parameters -----------------------------------------------------
    def bind(self, **overrides) -> dict:
        """Merge caller overrides over the declared defaults. Unknown
        keys fail with the accepted names; ``model`` values are checked
        against the zoo."""
        params = dict(self.params)
        unknown = sorted(set(overrides) - set(params))
        if unknown:
            raise ScenarioError(
                f"scenario {self.name!r} accepts no parameter(s) "
                f"{unknown}; accepted: {sorted(params) or '(none)'}"
            )
        params.update(overrides)
        if "model" in params:
            _validate_models(
                params["model"], where=f"scenario {self.name!r} param 'model'"
            )
        if "algorithm" in params:
            _validate_algorithm(
                params["algorithm"],
                where=f"scenario {self.name!r} param 'algorithm'",
            )
        return params
