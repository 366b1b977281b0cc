"""Declarative sweep specifications.

The paper's evaluation is a grid — model x workers x PS x algorithm x
platform x knobs — and every experiment driver wants some slice of it.
Two unit types cover all of them:

* :class:`SimCell` — one simulated configuration, the unit the runner
  caches and parallelizes. Cells sharing (model, batch factor, cluster
  spec, platform) also share one compiled cluster graph (compile-once
  reuse), because only the :class:`~repro.core.schedules.Schedule` and
  :class:`~repro.sim.config.SimConfig` differ between them.
* :class:`FnTask` — an arbitrary deterministic function call addressed as
  ``"module:qualname"`` with JSON-serializable kwargs, for driver work
  that is not a plain cluster simulation (Fig. 8's SGD runs, §2.2's
  unique-order counts, Table 1's model characteristics, custom-schedule
  ablations).

:class:`GridSpec` expands the cartesian product declaratively; drivers
with irregular slices build their cell lists directly.
"""

from __future__ import annotations

import importlib
import json
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Iterator, Optional

from ..ps.cluster import ClusterSpec
from ..sim.config import SimConfig
from .fingerprint import code_fingerprint, module_fingerprint


def canonical_json(payload: object) -> str:
    """Deterministic JSON encoding used for cache-key material."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def ps_for_workers(n_workers: int) -> int:
    """Fig. 7's PS-provisioning policy: PS:workers = 1:4, at least one PS."""
    return max(1, n_workers // 4)


@dataclass(frozen=True)
class SimCell:
    """One point of the evaluation grid."""

    model: str
    spec: ClusterSpec
    algorithm: str = "baseline"
    platform: str = "envG"
    batch_factor: float = 1.0
    config: SimConfig = field(default_factory=SimConfig)

    def with_(self, **changes) -> "SimCell":
        return replace(self, **changes)

    @property
    def group_key(self) -> tuple:
        """Cells with equal group keys share one compiled cluster graph."""
        return (self.model, self.batch_factor, self.spec, self.platform)

    def key_payload(self) -> dict:
        # The spec's class name is part of the key: multiple backend spec
        # types share this cache keyspace, and two specs of different
        # backends must never collide even if their field dicts coincide.
        # The engine revision pins the compiled-array layout that produced
        # a cached cell, so results simulated by a pre-refactor engine can
        # never be served as hits (also folded into code_fingerprint).
        from ..sim.engine import ENGINE_REV

        cell = asdict(self)
        # Tracing is observational (side-array writes, no RNG use): a
        # traced run produces the same summaries as an untraced one, so
        # both share — and can never poison — one cache entry.
        cell["config"].pop("trace", None)
        # Faults DO change results, so a set plan stays in the key (the
        # event dataclasses carry a ``kind`` marker field, so asdict()
        # output distinguishes event types). A None plan is dropped so
        # pre-fault cache entries keep their keys.
        if cell["config"].get("faults") is None:
            cell["config"].pop("faults", None)
        return {
            "kind": "sim_cell",
            "spec_type": type(self.spec).__name__,
            "engine_rev": ENGINE_REV,
            "cell": cell,
        }

    def cache_key_material(self) -> str:
        return canonical_json(
            {"payload": self.key_payload(), "code": code_fingerprint()}
        )


@dataclass(frozen=True)
class FnTask:
    """A cacheable call to ``module:qualname`` with keyword arguments.

    The target must be a module-level function (so worker processes can
    import it) that is deterministic in its kwargs and returns
    JSON-serializable data.
    """

    fn: str
    kwargs: tuple[tuple[str, object], ...] = ()

    @classmethod
    def make(cls, fn: Callable, **kwargs) -> "FnTask":
        """Build a task from the function object itself."""
        path = f"{fn.__module__}:{fn.__qualname__}"
        return cls(fn=path, kwargs=tuple(sorted(kwargs.items())))

    @property
    def module(self) -> str:
        return self.fn.split(":", 1)[0]

    def resolve(self) -> Callable:
        module_name, _, qualname = self.fn.partition(":")
        obj = importlib.import_module(module_name)
        for part in qualname.split("."):
            obj = getattr(obj, part)
        return obj

    def key_payload(self) -> dict:
        return {"kind": "fn_task", "fn": self.fn, "kwargs": dict(self.kwargs)}

    def cache_key_material(self) -> str:
        return canonical_json(
            {
                "payload": self.key_payload(),
                "code": code_fingerprint(),
                "module": module_fingerprint(self.module),
            }
        )


@dataclass(frozen=True)
class GridSpec:
    """Declarative cartesian grid over the evaluation axes.

    ``ps_from_workers`` applies Fig. 7's PS:workers = 1:4 policy instead of
    enumerating ``ps_counts``. Expansion order is the drivers' conventional
    nesting — workload, model, workers, PS, platform, batch factor,
    algorithm — so rows assembled from the expansion match the seed's
    hand-rolled loops.
    """

    models: tuple[str, ...]
    workloads: tuple[str, ...] = ("training",)
    worker_counts: tuple[int, ...] = (1,)
    ps_counts: tuple[int, ...] = (1,)
    ps_from_workers: bool = False
    algorithms: tuple[str, ...] = ("baseline",)
    platforms: tuple[str, ...] = ("envG",)
    batch_factors: tuple[float, ...] = (1.0,)
    sharding: str = "greedy"

    def cells(self, config: Optional[SimConfig] = None) -> list["SimCell"]:
        return list(self.iter_cells(config))

    def iter_cells(self, config: Optional[SimConfig] = None) -> Iterator["SimCell"]:
        cfg = config or SimConfig()
        for workload in self.workloads:
            for model in self.models:
                for n_workers in self.worker_counts:
                    for n_ps in self._ps_counts_for(n_workers):
                        spec = ClusterSpec(
                            n_workers=n_workers,
                            n_ps=n_ps,
                            workload=workload,
                            sharding=self.sharding,
                        )
                        for platform in self.platforms:
                            for factor in self.batch_factors:
                                for algorithm in self.algorithms:
                                    yield SimCell(
                                        model=model,
                                        spec=spec,
                                        algorithm=algorithm,
                                        platform=platform,
                                        batch_factor=factor,
                                        config=cfg,
                                    )

    def _ps_counts_for(self, n_workers: int) -> tuple[int, ...]:
        if self.ps_from_workers:
            return (ps_for_workers(n_workers),)
        return self.ps_counts

    def __len__(self) -> int:
        per_worker_ps = (
            len(self.worker_counts)
            if self.ps_from_workers
            else len(self.worker_counts) * len(self.ps_counts)
        )
        return (
            len(self.workloads)
            * len(self.models)
            * per_worker_ps
            * len(self.platforms)
            * len(self.batch_factors)
            * len(self.algorithms)
        )
