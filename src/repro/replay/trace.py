"""Trace ingestion: the job-trace schema and the synthetic generator.

A **trace** is a time-ordered sequence of :class:`JobTrace` rows — one
submitted training job each: which model, how many workers/PS, which
scheduling algorithm the job asked for, when it arrived, and how much
work it brings (an explicit iteration budget, or a wall-clock duration
the replay engine converts through the job's dedicated iteration time).

:class:`SyntheticTraceSpec` generates traces from a seed: an arrival
process drawn from the :data:`GENERATORS` registry (``poisson`` /
``uniform`` / ``bursty``; extensible via :func:`register_generator`,
unknown names fail with did-you-mean hints exactly like placements and
exporters), a model-zoo mix, and size distributions over worker counts
and iteration budgets.

Determinism note: generation consumes **only raw uniform doubles** from
numpy's PCG64 stream (``Generator.random``), with exponentials, weighted
choices and integer ranges derived in plain Python. The raw stream is
the one part of numpy's random API with a cross-version stability
guarantee, so a seed reproduces the same trace on every host — the
property the committed ``cluster_day`` CSVs and their CI drift gate
rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..core.wizard import ALGORITHMS
from ..models.zoo import MODELS
from ..registry import Registry, UnknownNameError, did_you_mean


class TraceError(ValueError):
    """A trace row or trace spec failed validation."""


class UnknownGeneratorError(UnknownNameError):
    """Lookup of a trace-generator name that is not registered."""


@dataclass(frozen=True)
class JobTrace:
    """One job of a trace (validated at construction).

    Exactly one of ``iterations`` (an explicit budget) or ``duration_s``
    (wall-clock demand; the replay engine divides by the job's dedicated
    per-iteration time) must be set.
    """

    job_id: str
    model: str
    n_workers: int = 2
    n_ps: int = 1
    algorithm: str = "tic"
    arrival_s: float = 0.0
    iterations: Optional[float] = None
    duration_s: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.job_id:
            raise TraceError("job_id must be a non-empty string")
        if self.model not in MODELS:
            raise TraceError(
                f"job {self.job_id!r}: unknown model {self.model!r}"
                + did_you_mean(self.model, MODELS)
            )
        if self.algorithm not in ALGORITHMS:
            raise TraceError(
                f"job {self.job_id!r}: unknown algorithm {self.algorithm!r}; "
                f"one of {ALGORITHMS}" + did_you_mean(self.algorithm, ALGORITHMS)
            )
        if self.n_workers <= 0 or self.n_ps <= 0:
            raise TraceError(
                f"job {self.job_id!r}: n_workers and n_ps must be positive"
            )
        if not math.isfinite(self.arrival_s) or self.arrival_s < 0:
            raise TraceError(
                f"job {self.job_id!r}: arrival_s must be finite and >= 0, "
                f"got {self.arrival_s!r}"
            )
        if (self.iterations is None) == (self.duration_s is None):
            raise TraceError(
                f"job {self.job_id!r}: set exactly one of iterations or "
                f"duration_s"
            )
        budget = self.iterations if self.iterations is not None else self.duration_s
        if not math.isfinite(budget) or budget <= 0:
            raise TraceError(
                f"job {self.job_id!r}: the iteration/duration budget must be "
                f"finite and positive, got {budget!r}"
            )

    @property
    def slots(self) -> int:
        """Device slots this job occupies on the shared cluster."""
        return self.n_workers + self.n_ps


# ----------------------------------------------------------------------
# Trace generators (arrival processes)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TraceGenerator:
    """One registered arrival process.

    ``fn(uniforms, n_jobs, horizon_s)`` maps a callable yielding uniform
    doubles in [0, 1) to ``n_jobs`` arrival offsets in seconds (any
    order; the caller sorts).
    """

    name: str
    description: str
    fn: Callable[[Callable[[], float], int, float], list[float]]


#: Registered trace generators by name.
GENERATORS: Registry = Registry("trace generator", UnknownGeneratorError)


def register_generator(generator: TraceGenerator) -> None:
    """Register a generator; later registrations replace earlier ones."""
    GENERATORS[generator.name] = generator


def _poisson(u: Callable[[], float], n_jobs: int, horizon_s: float) -> list[float]:
    # Exponential inter-arrival gaps at rate n_jobs / horizon, rescaled
    # so the last arrival lands inside the horizon (a conditioned
    # Poisson process: uniform order statistics would be equivalent,
    # gaps keep the draw count fixed at one per job).
    gaps = [-math.log(1.0 - u()) for _ in range(n_jobs)]
    total = sum(gaps) or 1.0
    scale = horizon_s * n_jobs / ((n_jobs + 1) * total)
    times, t = [], 0.0
    for g in gaps:
        t += g * scale
        times.append(t)
    return times

def _uniform(u: Callable[[], float], n_jobs: int, horizon_s: float) -> list[float]:
    # Evenly spaced slots with +-40% jitter inside each slot.
    slot = horizon_s / n_jobs
    return [
        (i + 0.5 + 0.8 * (u() - 0.5)) * slot for i in range(n_jobs)
    ]

def _bursty(u: Callable[[], float], n_jobs: int, horizon_s: float) -> list[float]:
    # Jobs clump into bursts (~8 jobs each) whose centers are uniform on
    # the horizon; within a burst, arrivals spread over ~2% of it.
    n_bursts = max(1, n_jobs // 8)
    centers = sorted(u() * horizon_s for _ in range(n_bursts))
    width = 0.02 * horizon_s
    times = []
    for i in range(n_jobs):
        c = centers[int(u() * n_bursts) % n_bursts]
        times.append(min(max(c + (u() - 0.5) * width, 0.0), horizon_s))
    return times


register_generator(TraceGenerator(
    name="poisson",
    description="memoryless arrivals (exponential gaps) across the horizon",
    fn=_poisson,
))
register_generator(TraceGenerator(
    name="uniform",
    description="evenly spaced arrivals with per-slot jitter",
    fn=_uniform,
))
register_generator(TraceGenerator(
    name="bursty",
    description="clustered arrival bursts (~8 jobs) at random times",
    fn=_bursty,
))


# ----------------------------------------------------------------------
# Synthetic trace spec
# ----------------------------------------------------------------------

def _check_weighted(name: str, entries, check) -> None:
    if not entries:
        raise TraceError(f"{name} must name at least one entry")
    for value, weight in entries:
        check(value)
        if not math.isfinite(weight) or weight <= 0:
            raise TraceError(
                f"{name}: weight for {value!r} must be finite and positive, "
                f"got {weight!r}"
            )


@dataclass(frozen=True)
class SyntheticTraceSpec:
    """Seeded synthetic workload: arrival process x model mix x sizes.

    ``models``/``algorithms``/``workers`` are ``(value, weight)``
    distributions; ``iterations`` is an inclusive integer range drawn
    uniformly. All names are validated at construction with did-you-mean
    hints (generator registry, model zoo, wizard algorithms).
    """

    n_jobs: int = 100
    horizon_s: float = 3600.0
    arrival: str = "poisson"
    models: tuple[tuple[str, float], ...] = (
        ("AlexNet v2", 0.6),
        ("Inception v1", 0.4),
    )
    algorithms: tuple[tuple[str, float], ...] = (("tic", 0.5), ("tac", 0.5))
    workers: tuple[tuple[int, float], ...] = ((2, 1.0),)
    n_ps: int = 1
    iterations: tuple[int, int] = (8, 24)

    def __post_init__(self) -> None:
        if self.n_jobs <= 0:
            raise TraceError(f"n_jobs must be positive, got {self.n_jobs}")
        if not math.isfinite(self.horizon_s) or self.horizon_s <= 0:
            raise TraceError(
                f"horizon_s must be finite and positive, got {self.horizon_s!r}"
            )
        GENERATORS[self.arrival]  # fail fast with did-you-mean hints

        def check_model(name):
            if name not in MODELS:
                raise TraceError(
                    f"models: unknown model {name!r}" + did_you_mean(name, MODELS)
                )

        def check_algorithm(name):
            if name not in ALGORITHMS:
                raise TraceError(
                    f"algorithms: unknown algorithm {name!r}; one of "
                    f"{ALGORITHMS}" + did_you_mean(name, ALGORITHMS)
                )

        def check_workers(n):
            if not isinstance(n, int) or n <= 0:
                raise TraceError(
                    f"workers: counts must be positive ints, got {n!r}"
                )

        _check_weighted("models", self.models, check_model)
        _check_weighted("algorithms", self.algorithms, check_algorithm)
        _check_weighted("workers", self.workers, check_workers)
        if self.n_ps <= 0:
            raise TraceError(f"n_ps must be positive, got {self.n_ps}")
        lo, hi = self.iterations
        if lo <= 0 or hi < lo:
            raise TraceError(
                f"iterations must be a positive (lo, hi) range, got "
                f"{self.iterations!r}"
            )


def _pick(u: float, entries) -> object:
    """Weighted choice from one uniform double (cumulative scan)."""
    total = sum(w for _, w in entries)
    mark = u * total
    acc = 0.0
    for value, weight in entries:
        acc += weight
        if mark < acc:
            return value
    return entries[-1][0]


def generate_trace(spec: SyntheticTraceSpec, seed: int = 0) -> tuple[JobTrace, ...]:
    """Generate ``spec``'s trace deterministically from ``seed``.

    Arrivals come from the spec's registered generator; per-job model,
    algorithm, worker count and iteration budget are weighted draws.
    Jobs are ordered by arrival (ties by id), ids are ``job-0000``...
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x7E9A)))
    u = lambda: float(rng.random())  # noqa: E731 - the only stream tap
    arrivals = sorted(
        GENERATORS[spec.arrival].fn(u, spec.n_jobs, spec.horizon_s)
    )
    lo, hi = spec.iterations
    jobs = []
    for i, arrival in enumerate(arrivals):
        jobs.append(JobTrace(
            job_id=f"job-{i:04d}",
            model=_pick(u(), spec.models),
            n_workers=_pick(u(), spec.workers),
            n_ps=spec.n_ps,
            algorithm=_pick(u(), spec.algorithms),
            arrival_s=round(max(0.0, arrival), 3),
            iterations=float(lo + int(u() * (hi - lo + 1))),
        ))
    return tuple(jobs)
