"""The Session facade: one object owning runner, cache and lifecycle.

A :class:`Session` is the stable programmatic entry point to the whole
pipeline::

    from repro.api import Session

    with Session(scale="quick", jobs=2) as session:
        rs = session.run("fig7")            # a registered scenario
        print(rs.to_table())                # rows are values...
        rs.save("results")                  # ...writing CSV is explicit
        print(rs.provenance.as_dict())      # engine rev, cache

It wraps an execution :class:`~repro.api.context.Context` — the shared
:class:`~repro.sweep.SweepRunner` with its persistent worker pool and
on-disk result cache — and guarantees cleanup on
``close()``/``__exit__`` (the runner's ``atexit`` hook is the backstop).
Scenarios may be names from the registry or ad-hoc
:class:`~repro.api.scenario.Scenario` objects; either way execution goes
through the one generic engine, so a custom scenario gets caching,
parallelism and provenance for free. This seam (``Session.run`` over a
process-agnostic cell/cache layer) is where the ROADMAP's distributed
multi-host executor will plug in.
"""

from __future__ import annotations

import os
from typing import Optional, Union

from .context import SCALES, Context, Scale, make_context
from .engine import execute_scenario
from .registry import scenario as get_scenario
from .registry import scenario_names
from .resultset import ResultSet
from .scenario import Scenario


class Session:
    """Owns the execution context for one or more scenario runs.

    Parameters
    ----------
    scale:
        ``"quick"`` / ``"full"``, a custom :class:`Scale`, or ``None``
        to consult ``REPRO_SCALE`` (like the CLI).
    jobs:
        Worker processes for the sweep runner; ``None`` consults
        ``REPRO_JOBS`` (default 1).
    cache:
        ``True`` — the default on-disk cache under
        ``<results_dir>/.sweep-cache`` (``REPRO_NO_CACHE=1`` still
        disables it, like the CLI); ``False`` — no cache; a path — that
        directory, unconditionally (an explicit argument defeats the
        env toggle).
    results_dir, seed, rerun, verbose, cache_max_mb:
        As on the CLI; ``results_dir`` is also the default target of
        :meth:`save`.
    """

    def __init__(
        self,
        *,
        scale: Union[str, Scale, None] = "quick",
        results_dir: str = "results",
        seed: int = 0,
        jobs: Optional[int] = None,
        cache: Union[bool, str, os.PathLike] = True,
        rerun: bool = False,
        verbose: bool = False,
        cache_max_mb: Optional[float] = None,
    ) -> None:
        kwargs = dict(
            results_dir=results_dir,
            seed=seed,
            jobs=jobs,
            rerun=rerun,
            verbose=verbose,
        )
        if cache_max_mb is not None:
            # only pass an explicit cap: make_context falls back to
            # $REPRO_CACHE_MAX_MB when the kwarg is absent
            kwargs["cache_max_mb"] = cache_max_mb
        if cache is False:
            kwargs["use_cache"] = False
        elif cache is not True:
            # an explicit directory defeats the ambient REPRO_NO_CACHE=1
            # default make_context would otherwise apply
            kwargs["cache_dir"] = os.fspath(cache)
            kwargs["use_cache"] = True
        if isinstance(scale, Scale):
            ctx = make_context(full=False, **kwargs)
            ctx.scale = scale
        elif scale is None:
            ctx = make_context(full=None, **kwargs)
        else:
            try:
                named = SCALES[scale]
            except KeyError:
                raise ValueError(
                    f"unknown scale {scale!r}; expected one of "
                    f"{sorted(SCALES)} or a Scale instance"
                ) from None
            ctx = make_context(full=named.name == "full", **kwargs)
            ctx.scale = named
        self._ctx = ctx

    # -- lifecycle ------------------------------------------------------
    @property
    def context(self) -> Context:
        """The underlying execution context (advanced embedders)."""
        return self._ctx

    @property
    def scale(self) -> Scale:
        return self._ctx.scale

    @property
    def results_dir(self) -> str:
        return self._ctx.results_dir

    @property
    def sweep(self):
        """The session's shared sweep runner."""
        return self._ctx.sweep

    def close(self) -> None:
        """Apply the cache size cap (``cache_max_mb`` — no-op without
        one), then shut the worker pool down. Idempotent; also runs from
        ``with`` exits."""
        try:
            self._ctx.gc_cache()
        finally:
            self._ctx.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- execution ------------------------------------------------------
    def run(
        self, scenario: Union[str, Scenario], /, **overrides
    ) -> ResultSet:
        """Execute one scenario (registry name or Scenario object) and
        return its :class:`~repro.api.resultset.ResultSet`. Keyword
        overrides rebind the scenario's declared parameters, e.g.
        ``session.run("fig12", model="VGG-16")``."""
        if isinstance(scenario, str):
            scenario = get_scenario(scenario)
        return execute_scenario(self._ctx, scenario, **overrides)

    def run_all(
        self, names: Optional[list[str]] = None
    ) -> dict[str, ResultSet]:
        """Run several scenarios (``None``: the whole registry in
        presentation order; an explicit empty list runs nothing);
        returns name -> ResultSet."""
        if names is None:
            names = list(scenario_names())
        return {name: self.run(name) for name in names}

    def save(self, result: ResultSet) -> dict[str, str]:
        """Write a result's tables under this session's results dir."""
        return result.save(self._ctx.results_dir)

    def scenarios(self) -> tuple[str, ...]:
        """Registered scenario names, in presentation order."""
        return scenario_names()

    def __repr__(self) -> str:  # pragma: no cover - convenience
        ctx = self._ctx
        return (
            f"Session(scale={ctx.scale.name!r}, jobs={ctx.jobs}, "
            f"results_dir={ctx.results_dir!r}, cache={ctx.use_cache})"
        )
