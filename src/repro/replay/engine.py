"""The discrete-time epoch scheduler: dynamic admission over job mixes.

The jobmix layer (:mod:`repro.sim.jobmix`) compiles a *fixed* set of
jobs with arrival offsets known at compile time. A day-long trace breaks
that model twice over: thousands of jobs cannot share one union DAG, and
admission decisions (who runs when slots free up) depend on simulated
history. This engine chains the two worlds:

* simulated time advances in **epochs** — intervals during which the set
  of running jobs is constant. An epoch ends when a job departs (its
  iteration budget drains) or an arrival is admitted;
* within an epoch, every running job progresses at the per-iteration
  rate of the current **composition**: the running jobs compiled as one
  :class:`~repro.sim.jobmix.JobMixSpec` on the shared cluster (placement
  recomputed per epoch — the ``host_map`` follows the surviving jobs)
  and simulated for one iteration through the shared
  :class:`~repro.sweep.SweepRunner` — so rate cells hit the same disk
  cache, worker pool and quarantine machinery as every other sweep.
  Identical compositions (a multiset of job shapes) are memoized, which
  is what makes a 1000-job day tractable: a day has thousands of epochs
  but only dozens-to-hundreds of distinct compositions;
* at each epoch boundary departures release slots, arrivals enter the
  FIFO queue, and the configured admission policy
  (:mod:`repro.replay.admission`) picks queue entries against the free
  slot count. Jobs too big for the whole cluster are quarantined.

Each finished job emits one row (queueing delay, wait, JCT, slowdown vs
its dedicated-cluster run) into the caller's streaming sink — rows are
never accumulated here, so peak RSS is bounded by the running set and
the composition memo, not the trace length.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from ..backends.placement import DEFAULT_SLOTS_PER_HOST, PLACEMENTS
from ..registry import did_you_mean
from ..sim.config import SimConfig
from ..sim.jobmix import JobMixSpec, JobSpec, job_label
from ..sweep.spec import SimCell
from ..timing import PLATFORMS
from .admission import ADMISSIONS
from .sink import ListSink, RowSink
from .trace import JobTrace

#: columns of the per-job row stream, in sink order.
JOB_COLUMNS = (
    "algorithm", "admission", "job_id", "model", "job_algorithm",
    "n_workers", "n_ps", "slots", "status",
    "arrival_s", "admit_s", "finish_s",
    "queue_delay_s", "run_s", "jct_s", "wait_s",
    "iterations", "dedicated_iter_s", "slowdown",
)

_EPS = 1e-9


class ReplayError(ValueError):
    """A replay that cannot proceed (bad cluster, stalled admission)."""


@dataclass(frozen=True)
class ReplayCluster:
    """The shared cluster a replay runs on: slot capacity + placement."""

    n_hosts: int = 8
    slots_per_host: int = DEFAULT_SLOTS_PER_HOST
    placement: str = "packed"
    platform: str = "envC"

    def __post_init__(self) -> None:
        if self.n_hosts <= 0 or self.slots_per_host <= 0:
            raise ReplayError("n_hosts and slots_per_host must be positive")
        PLACEMENTS[self.placement]  # fail fast with did-you-mean hints
        if self.platform not in PLATFORMS:
            raise ReplayError(
                f"unknown platform {self.platform!r}; available: "
                f"{sorted(PLATFORMS)}" + did_you_mean(self.platform, PLATFORMS)
            )

    @property
    def total_slots(self) -> int:
        return self.n_hosts * self.slots_per_host


@dataclass
class _Job:
    """Book-keeping of one admitted (or queued) job."""

    trace: JobTrace
    alg: str  # effective algorithm under the replay's mode
    admit_s: float = 0.0
    order: int = 0  # admission sequence (stable tie-break)
    budget: float = 0.0  # iterations to run
    remaining: float = 0.0  # iterations left
    iter_s: float = 0.0  # per-iteration seconds under the current mix
    ded_iter_s: float = 0.0  # per-iteration seconds on a dedicated cluster


@dataclass
class ReplayResult:
    """What one replay run reports beyond its streamed rows."""

    label: str
    algorithm: str
    admission: str
    jobs: int
    done: int
    makespan_s: float
    epochs: int
    compositions: int
    rate_fallbacks: int
    queued: int  # jobs that spent time in the queue
    queue_peak: int
    quarantined: list[tuple[str, str]] = field(default_factory=list)


def _round(value: float) -> float:
    return round(value, 6)


class _RateOracle:
    """Memoized per-job iteration rates of running compositions.

    A composition is the multiset of running job *shapes* — ``(model,
    n_workers, n_ps, algorithm)`` — sorted canonically so the memo (and
    the sweep cache under it) is hit regardless of admission history.
    Rates are position-dependent (placement packs devices in job order),
    so jobs are mapped onto the sorted composition deterministically.
    """

    def __init__(self, cluster, mode, config, runner, telemetry):
        self.cluster = cluster
        self.mode = mode
        self.config = config.with_(iterations=1, warmup=0)
        self.runner = runner
        self.telemetry = telemetry
        self._memo: dict[tuple, tuple[Optional[float], ...]] = {}
        self._solo: dict[tuple, float] = {}
        self.compositions = 0
        self.fallbacks = 0

    @staticmethod
    def _shape(job: _Job) -> tuple:
        t = job.trace
        return (t.model, t.n_workers, t.n_ps, job.alg)

    def _cell(self, shapes: Sequence[tuple], placement, n_hosts) -> SimCell:
        spec = JobMixSpec(
            jobs=tuple(
                JobSpec(
                    model=model, n_workers=w, n_ps=p, algorithm=alg
                )
                for model, w, p, alg in shapes
            ),
            placement=placement,
            n_hosts=n_hosts,
            slots_per_host=self.cluster.slots_per_host,
        )
        return SimCell(
            model=shapes[0][0],
            spec=spec,
            algorithm=self.mode,
            platform=self.cluster.platform,
            config=self.config,
        )

    def _simulate(self, shapes, placement, n_hosts) -> Optional[tuple[float, ...]]:
        cell = self._cell(shapes, placement, n_hosts)
        res = self.runner.run_cells([cell])[0]
        if res is None:  # quarantined by the resilient runner
            return None
        it = res.iterations[0]
        return tuple(
            max(it.job_finish[job_label(i)], 1e-6) for i in range(len(shapes))
        )

    def dedicated(self, job: _Job) -> float:
        """The job's per-iteration time alone on dedicated hosts (the
        slowdown denominator and the duration -> iterations converter)."""
        shape = self._shape(job)
        if shape not in self._solo:
            rates = self._simulate((shape,), "dedicated", 0)
            if rates is None:
                raise ReplayError(
                    f"dedicated rate cell for {shape!r} was quarantined — "
                    f"cannot anchor budgets or slowdowns"
                )
            self._solo[shape] = rates[0]
        return self._solo[shape]

    def assign(self, running: list[_Job]) -> None:
        """Set every running job's ``iter_s`` from its composition."""
        ordered = sorted(
            running, key=lambda j: (self._shape(j), j.order)
        )
        key = tuple(self._shape(j) for j in ordered)
        if key not in self._memo:
            self.compositions += 1
            self._memo[key] = self._simulate(
                key, self.cluster.placement, self.cluster.n_hosts
            )
        rates = self._memo[key]
        if rates is None:
            # the composition's rate cell was quarantined after retries:
            # fall back to contention-free dedicated rates so the replay
            # completes (flagged in telemetry + the scenario's
            # quarantined extras identify the lost cell).
            self.fallbacks += 1
            if self.telemetry is not None:
                self.telemetry.add("replay_rate_fallbacks")
            for job in ordered:
                job.iter_s = self.dedicated(job)
            return
        for job, rate in zip(ordered, rates):
            job.iter_s = rate


def replay(
    traces: Sequence[JobTrace],
    cluster: ReplayCluster,
    *,
    runner,
    algorithm: str = "mix",
    admission: str = "fifo",
    config: Optional[SimConfig] = None,
    sink: Optional[RowSink] = None,
    label: Optional[str] = None,
    log: Optional[Callable[[str], None]] = None,
) -> ReplayResult:
    """Replay ``traces`` through the epoch scheduler.

    ``algorithm`` is the scheduling mode under study: ``"mix"`` gives
    every job its own :attr:`~repro.replay.trace.JobTrace.algorithm`
    (per-job TIC/TAC); any wizard algorithm name applies uniformly
    (``"baseline"`` is the no-scheduling reference). ``runner`` is the
    shared :class:`~repro.sweep.SweepRunner` rate cells execute on.
    Rows stream into ``sink`` (default: an in-memory :class:`ListSink`)
    tagged with ``label`` (default: the algorithm mode) in the
    ``algorithm`` column.
    """
    policy = ADMISSIONS[admission]  # fail fast with did-you-mean hints
    label = label if label is not None else algorithm
    sink = sink if sink is not None else ListSink()
    telemetry = getattr(runner, "telemetry", None)
    oracle = _RateOracle(
        cluster, algorithm, config or SimConfig(), runner, telemetry
    )
    total = cluster.total_slots

    def effective_alg(trace: JobTrace) -> str:
        return trace.algorithm if algorithm == "mix" else algorithm

    def base_row(job: _Job, status: str) -> dict:
        t = job.trace
        return {
            "algorithm": label,
            "admission": admission,
            "job_id": t.job_id,
            "model": t.model,
            "job_algorithm": job.alg,
            "n_workers": t.n_workers,
            "n_ps": t.n_ps,
            "slots": t.slots,
            "status": status,
        }

    pending = deque(sorted(traces, key=lambda t: (t.arrival_s, t.job_id)))
    queue: list[_Job] = []
    running: list[_Job] = []
    result = ReplayResult(
        label=label, algorithm=algorithm, admission=admission,
        jobs=len(pending), done=0, makespan_s=0.0, epochs=0,
        compositions=0, rate_fallbacks=0, queued=0, queue_peak=0,
    )
    now = 0.0
    seq = 0
    free = total

    while pending or queue or running:
        next_arr = pending[0].arrival_s if pending else math.inf
        next_dep = min(
            (now + max(j.remaining, 0.0) * j.iter_s for j in running),
            default=math.inf,
        )
        t = min(next_arr, next_dep)
        if not math.isfinite(t):
            # nothing running, nothing arriving, queue non-empty: the
            # policy admitted nothing against an empty cluster.
            raise ReplayError(
                f"admission policy {admission!r} stalled with "
                f"{len(queue)} queued job(s) on an empty cluster"
            )
        if t > now:
            for job in running:
                job.remaining -= (t - now) / job.iter_s
            now = t
        changed = False

        # departures (admit-order stable under simultaneous finishes)
        finished = sorted(
            (j for j in running if j.remaining <= _EPS), key=lambda j: j.order
        )
        for job in finished:
            run_s = now - job.admit_s
            ded_run = job.budget * job.ded_iter_s
            queue_delay = job.admit_s - job.trace.arrival_s
            row = base_row(job, "done")
            row.update({
                "arrival_s": _round(job.trace.arrival_s),
                "admit_s": _round(job.admit_s),
                "finish_s": _round(now),
                "queue_delay_s": _round(queue_delay),
                "run_s": _round(run_s),
                "jct_s": _round(now - job.trace.arrival_s),
                "wait_s": _round(now - job.trace.arrival_s - ded_run),
                "iterations": _round(job.budget),
                "dedicated_iter_s": _round(job.ded_iter_s),
                "slowdown": round(run_s / ded_run, 4) if ded_run else "",
            })
            sink.append(row)
            free += job.trace.slots
            result.done += 1
            result.makespan_s = max(result.makespan_s, now)
            if queue_delay > _EPS:
                result.queued += 1
            changed = True
            if log is not None and result.done % 200 == 0:
                log(
                    f"  replay[{label}] {result.done}/{result.jobs} jobs "
                    f"done, t={now / 3600.0:.2f}h, queue {len(queue)}"
                )
        if finished:
            running = [j for j in running if j.remaining > _EPS]

        # arrivals enter the queue (oversized jobs are quarantined)
        while pending and pending[0].arrival_s <= now + _EPS:
            trace = pending.popleft()
            if trace.slots > total:
                reason = (
                    f"needs {trace.slots} slots > cluster capacity {total}"
                )
                result.quarantined.append((trace.job_id, reason))
                job = _Job(trace=trace, alg=effective_alg(trace))
                sink.append(base_row(job, "quarantined"))
                if telemetry is not None:
                    telemetry.add("replay_jobs_quarantined")
                continue
            queue.append(_Job(trace=trace, alg=effective_alg(trace)))
        result.queue_peak = max(result.queue_peak, len(queue))

        # admission against the freed slots
        picks = policy.fn([j.trace.slots for j in queue], free)
        if picks:
            seen = set()
            demand = 0
            for i in picks:
                if not 0 <= i < len(queue) or i in seen:
                    raise ReplayError(
                        f"admission policy {admission!r} returned invalid "
                        f"queue index {i} (queue length {len(queue)})"
                    )
                seen.add(i)
                demand += queue[i].trace.slots
            if demand > free:
                raise ReplayError(
                    f"admission policy {admission!r} admitted {demand} "
                    f"slots with only {free} free"
                )
            for i in picks:
                job = queue[i]
                job.admit_s = now
                job.order = seq
                seq += 1
                job.ded_iter_s = oracle.dedicated(job)
                job.budget = (
                    job.trace.iterations
                    if job.trace.iterations is not None
                    else job.trace.duration_s / job.ded_iter_s
                )
                job.remaining = job.budget
                free -= job.trace.slots
                running.append(job)
                if telemetry is not None:
                    telemetry.add("replay_jobs_admitted")
            queue = [j for i, j in enumerate(queue) if i not in seen]
            changed = True

        # the composition changed: recompute every running job's rate
        # (placement — the host_map — is re-derived inside the compile)
        if changed:
            result.epochs += 1
            if running:
                oracle.assign(running)

    result.compositions = oracle.compositions
    result.rate_fallbacks = oracle.fallbacks
    if telemetry is not None:
        telemetry.add("replay_runs")
        telemetry.add("replay_epochs", result.epochs)
        telemetry.add("replay_jobs_done", result.done)
        telemetry.add("replay_jobs_waited", result.queued)
        telemetry.peak("replay_queue_peak", result.queue_peak)
        telemetry.peak("replay_compositions", oracle.compositions)
    return result
