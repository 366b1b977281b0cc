"""Replay scenarios: trace-driven cluster studies as registry entries.

A :class:`ReplayScenario` is the declarative surface of the replay
subsystem (:mod:`repro.replay`): one trace (a synthetic spec or loaded
jobs), one shared cluster, and the scheduling modes to replay the *same*
trace under. The ``_replay`` analysis generates a synthetic trace from
the run's seed, replays it once per mode through the epoch scheduler
(rate cells ride the context's shared sweep runner, so they hit the same
disk cache and quarantine machinery as every sweep), and streams per-job
rows into a chunked CSV sink next to the primary output — the summary
table is computed *incrementally* by the sink's aggregate, so a
million-row replay never holds its rows. The sink's manifest survives
until the replay completes, so a killed run resumes (``resume=True``)
from its last committed chunk; a completed one leaves no manifest.
``tictac-repro replay`` builds an ad-hoc ``replay`` scenario from its
flags and runs it through the same analysis.

The committed study:

* ``cluster_day`` — a synthetic day (86400 s) of 1000 jobs on a
  16-slot cluster, replayed under no scheduling (``baseline``), uniform
  TIC, uniform TAC, and per-job dispatch (``mix`` — each job keeps the
  algorithm it asked for). Per-job JCT/queueing-delay rows land in
  ``cluster_day_jobs.csv``; the per-mode makespan/JCT-percentile/
  fairness/utilization summary is the primary ``cluster_day.csv``.
  Replay rates are scale-independent (single-iteration compositions),
  so the committed CSVs regenerate identically at ``--quick`` — CI
  drift-gates them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Union

from ..analysis import format_table
from ..core.wizard import ALGORITHMS
from ..registry import did_you_mean
from ..replay.admission import ADMISSIONS
from ..replay.aggregate import ReplayAggregate
from ..replay.engine import JOB_COLUMNS, ReplayCluster, ReplayError, replay
from ..replay.sink import CsvChunkSink
from ..replay.trace import JobTrace, SyntheticTraceSpec, generate_trace
from .engine import ScenarioRun
from .registry import register_scenario
from .resultset import Report
from .scenario import Scenario


@dataclass(frozen=True)
class ReplayScenario:
    """Declarative description of one trace-replay study.

    ``trace`` is a :class:`SyntheticTraceSpec`, generated from the run's
    seed, or an already-loaded tuple of :class:`JobTrace`. ``modes`` are
    replayed in order over the identical trace: the sentinel ``"mix"``
    dispatches each job to its own trace algorithm; any wizard algorithm
    name applies uniformly. ``chunk_rows`` sets the sink's commit
    granularity (rows per fsync'd chunk). The per-job rows stream to
    ``jobs_csv`` (default ``<results_dir>/<output>_jobs.csv``);
    ``resume`` continues a killed run from that file's manifest.
    """

    trace: Union[SyntheticTraceSpec, tuple[JobTrace, ...]]
    cluster: ReplayCluster
    modes: tuple[str, ...] = ("baseline", "mix")
    admission: str = "fifo"
    chunk_rows: int = 256
    resume: bool = False
    jobs_csv: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.modes:
            raise ReplayError("modes must name at least one replay mode")
        for mode in self.modes:
            if mode != "mix" and mode not in ALGORITHMS:
                raise ReplayError(
                    f"unknown replay mode {mode!r}; 'mix' or one of "
                    f"{ALGORITHMS}" + did_you_mean(mode, ("mix", *ALGORITHMS))
                )
        if len(set(self.modes)) != len(self.modes):
            raise ReplayError(f"duplicate replay modes in {self.modes!r}")
        ADMISSIONS[self.admission]  # fail fast with did-you-mean hints
        if self.chunk_rows <= 0:
            raise ReplayError(
                f"chunk_rows must be positive, got {self.chunk_rows}"
            )


def _replay(run: ScenarioRun) -> Report:
    rp: ReplayScenario = run.param("replay")
    traces = rp.trace
    if isinstance(traces, SyntheticTraceSpec):
        traces = generate_trace(traces, seed=run.ctx.seed)
    jobs_path = rp.jobs_csv or os.path.join(
        run.ctx.results_dir, f"{run.scenario.output}_jobs.csv"
    )
    sink = CsvChunkSink(
        jobs_path,
        JOB_COLUMNS,
        chunk_rows=rp.chunk_rows,
        resume=rp.resume,
        aggregate=ReplayAggregate(rp.cluster.total_slots),
    )
    stats = []
    try:
        for mode in rp.modes:
            res = replay(
                traces,
                rp.cluster,
                runner=run.ctx.sweep,
                algorithm=mode,
                admission=rp.admission,
                config=run.ctx.sim_config(),
                sink=sink,
                log=run.ctx.log,
            )
            run.ctx.log(
                f"  replay {mode}: {res.done}/{res.jobs} jobs in "
                f"{res.epochs} epochs ({res.compositions} compositions, "
                f"queue peak {res.queue_peak})"
            )
            stats.append({
                "algorithm": res.label,
                "admission": res.admission,
                "jobs": res.jobs,
                "done": res.done,
                "quarantined": len(res.quarantined),
                "epochs": res.epochs,
                "compositions": res.compositions,
                "rate_fallbacks": res.rate_fallbacks,
                "jobs_waited": res.queued,
                "queue_peak": res.queue_peak,
            })
    except BaseException:
        # an unfinished run keeps its manifest: ``resume`` continues it
        sink.close(complete=False)
        raise
    info = sink.close()
    # a finished run has nothing to resume
    os.remove(sink.manifest_path)
    run.ctx.sweep.telemetry.add("replay_sink_rows", info["rows"])
    run.ctx.sweep.telemetry.add("replay_sink_chunks", info["chunks"])
    # a resumed sink restored its aggregate from the manifest, so it,
    # not the fresh one passed in, holds the rows committed before a crash
    rows = sink.aggregate.summary_rows()
    text = (
        format_table(rows, title=run.scenario.title)
        + "\n"
        + format_table(stats, title="replay run stats (per mode)")
    )
    stats_name = f"{run.scenario.output}_stats"
    return Report(
        rows=rows,
        text=text,
        tables={stats_name: stats},
        extras={"jobs_csv": jobs_path},
    )


# ======================================================================
# Registered studies
# ======================================================================

#: A day of a 1000-job cluster: Poisson arrivals over 24 h, the paper's
#: two headline envC models, jobs asking for TIC or TAC 50/50, fixed
#: 2 workers + 1 PS shapes (3 slots) on a 16-slot cluster — at most five
#: jobs run concurrently, which keeps the distinct-composition count
#: (the number of jobmix simulations actually run) around 10^2 while the
#: day still sees ~78% slot utilization and real queueing.
CLUSTER_DAY_TRACE = SyntheticTraceSpec(
    n_jobs=1000,
    horizon_s=86400.0,
    arrival="poisson",
    models=(("AlexNet v2", 0.6), ("Inception v1", 0.4)),
    algorithms=(("tic", 0.5), ("tac", 0.5)),
    workers=((2, 1.0),),
    n_ps=1,
    iterations=(16, 48),
)

CLUSTER_DAY = ReplayScenario(
    trace=CLUSTER_DAY_TRACE,
    cluster=ReplayCluster(
        n_hosts=8, slots_per_host=2, placement="packed", platform="envC"
    ),
    modes=("baseline", "tic", "tac", "mix"),
    admission="fifo",
)

register_scenario(Scenario(
    name="cluster_day",
    title="Cluster day: 1000-job trace replay, baseline vs TIC/TAC (envC)",
    output="cluster_day",
    analyze=_replay,
    backends=("jobmix",),
    aux_outputs=("cluster_day_jobs", "cluster_day_stats"),
    params=(("replay", CLUSTER_DAY),),
))
