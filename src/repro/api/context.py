"""Execution context and scale protocol for scenario runs.

Every scenario runs at one of two scales:

* ``quick`` (default) — a representative subset sized for CI / the
  benchmark suite: fewer models, fewer worker counts, fewer iterations.
* ``full`` — the paper's protocol (all models, workers 1..16, 10 recorded
  iterations after 2 warm-up, 1000-run consistency study). Select with
  ``REPRO_SCALE=full`` or ``--full`` on the CLI.

:class:`Context` is the one public execution object: it owns the shared
:class:`~repro.sweep.SweepRunner` (worker pool, on-disk result cache)
for one run of one or more scenarios, and is a context manager::

    from repro.api import execute_scenario, make_context

    with make_context(full=False, jobs=2) as ctx:
        rs = execute_scenario(ctx, "fig7")  # a registered scenario
        print(rs.to_table())                # rows are values...
        rs.save(ctx.results_dir)            # ...writing CSV is explicit
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Optional

from ..registry import Registry
from ..sim import SimConfig
from ..sweep import SweepRunner
from ..sweep.cache import ResultCache

#: Fig. 7's model set (the paper's nine; Table 1 lists ten — ResNet-101 v2
#: appears only in Table 1).
FIG7_MODELS: tuple[str, ...] = (
    "Inception v1",
    "VGG-19",
    "Inception v2",
    "AlexNet v2",
    "VGG-16",
    "ResNet-50 v1",
    "ResNet-50 v2",
    "Inception v3",
    "ResNet-101 v1",
)

QUICK_MODELS: tuple[str, ...] = (
    "Inception v1",
    "AlexNet v2",
    "VGG-16",
    "ResNet-50 v1",
)


@dataclass(frozen=True)
class Scale:
    """Knobs that differ between quick and full runs."""

    name: str
    models: tuple[str, ...]
    worker_counts: tuple[int, ...]
    ps_counts: tuple[int, ...]
    iterations: int
    warmup: int
    consistency_runs: int  # Fig. 12's run count
    loss_iterations: int  # Fig. 8's SGD steps


QUICK = Scale(
    name="quick",
    models=QUICK_MODELS,
    worker_counts=(2, 4, 8),
    ps_counts=(1, 2),
    iterations=4,
    warmup=1,
    consistency_runs=80,
    loss_iterations=150,
)

FULL = Scale(
    name="full",
    models=FIG7_MODELS,
    worker_counts=(1, 2, 4, 8, 16),
    ps_counts=(1, 2, 4),
    iterations=10,
    warmup=2,
    consistency_runs=1000,
    loss_iterations=500,
)

#: Scales by name (``capture_trace(scale="full")``); an unknown name
#: raises :class:`~repro.registry.UnknownNameError` listing these.
SCALES = Registry("scale", entries={"quick": QUICK, "full": FULL})


@dataclass
class Context:
    """Execution context every scenario runs against.

    ``jobs``/``use_cache``/``rerun`` configure the shared
    :class:`~repro.sweep.SweepRunner` every scenario submits its grid to:
    ``jobs`` fans cells out across processes, the cache (default
    ``<results_dir>/.sweep-cache``) lets re-runs and overlapping scenarios
    skip already-simulated cells, and ``rerun`` forces recomputation.
    A custom :class:`Scale` goes in ``scale``.
    """

    scale: Scale = field(default_factory=lambda: QUICK)
    results_dir: str = "results"
    seed: int = 0
    verbose: bool = True
    jobs: int = 1
    use_cache: bool = True
    rerun: bool = False
    cache_dir: Optional[str] = None
    #: size cap (MiB) for the sweep cache; ``None`` keeps entries forever.
    #: Enforced by :meth:`close` (LRU eviction, see :meth:`gc_cache`).
    cache_max_mb: Optional[float] = None
    _sweep: Optional[SweepRunner] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        cap = self.cache_max_mb
        if cap is not None and not (math.isfinite(cap) and cap >= 0):
            raise ValueError(
                f"cache_max_mb must be a finite number >= 0, got {cap!r}"
            )

    def _cache_path(self) -> str:
        return self.cache_dir or os.path.join(self.results_dir, ".sweep-cache")

    @property
    def sweep(self) -> SweepRunner:
        """The lazily-created sweep runner shared by this context."""
        if self._sweep is None:
            self._sweep = SweepRunner(
                jobs=self.jobs,
                cache_dir=self._cache_path() if self.use_cache else None,
                rerun=self.rerun,
            )
        return self._sweep

    def close(self) -> None:
        """Apply the ``cache_max_mb`` cap (no-op without one), then
        release the sweep runner's worker pool.

        The CLI calls this from a ``finally`` and ``with`` blocks from
        ``__exit__``, so pool workers never outlive the run (the runner's
        own ``atexit`` hook is the backstop for embedders that skip it)."""
        try:
            self.gc_cache()
        finally:
            runner, self._sweep = self._sweep, None
            if runner is not None:
                runner.close()

    def __enter__(self) -> "Context":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def gc_cache(self) -> Optional[dict]:
        """Apply the ``cache_max_mb`` cap to the on-disk sweep cache
        (no-op when no cap is configured).

        Operates on the cache directory directly, so an explicitly
        requested eviction works even when this run did not use the cache
        (``--no-cache`` / ``REPRO_NO_CACHE=1``).
        """
        if self.cache_max_mb is None:
            return None
        summary = ResultCache(self._cache_path()).gc(
            int(self.cache_max_mb * 2**20)
        )
        self.log(
            f"sweep cache gc: removed {summary['entries_removed']} "
            f"entries ({summary['bytes_removed'] / 2**20:.1f} MiB), "
            f"kept {summary['entries_kept']} "
            f"({summary['bytes_kept'] / 2**20:.1f} MiB <= "
            f"{self.cache_max_mb:.0f} MiB cap)"
        )
        return summary

    def sim_config(self, **overrides) -> SimConfig:
        base = dict(
            seed=self.seed,
            iterations=self.scale.iterations,
            warmup=self.scale.warmup,
        )
        base.update(overrides)
        return SimConfig(**base)

    def log(self, message: str) -> None:
        if self.verbose:
            print(message, flush=True)


def make_context(
    full: Optional[bool] = None,
    results_dir: str = "results",
    jobs: Optional[int] = None,
    **kwargs,
) -> Context:
    """Build a context; ``full=None`` consults ``REPRO_SCALE`` (``full``),
    ``jobs=None`` consults ``REPRO_JOBS`` (default 1),
    ``REPRO_NO_CACHE=1`` disables the sweep cache, and
    ``REPRO_CACHE_MAX_MB`` caps its size (LRU eviction on :meth:`Context.close`).
    An explicit ``cache_dir`` with ``use_cache=True`` defeats
    ``REPRO_NO_CACHE``; a negative, NaN or infinite cap raises
    ``ValueError``."""
    if full is None:
        full = os.environ.get("REPRO_SCALE", "").lower() == "full"
    if jobs is None:
        jobs = int(os.environ.get("REPRO_JOBS", "1"))
    if "use_cache" not in kwargs and os.environ.get("REPRO_NO_CACHE", "") == "1":
        kwargs["use_cache"] = False
    if "cache_max_mb" not in kwargs and os.environ.get("REPRO_CACHE_MAX_MB"):
        kwargs["cache_max_mb"] = float(os.environ["REPRO_CACHE_MAX_MB"])
    return Context(
        scale=FULL if full else QUICK, results_dir=results_dir, jobs=jobs, **kwargs
    )
