"""Replay scenarios: trace-driven cluster studies as registry entries.

A :class:`ReplayScenario` is the declarative surface of the replay
subsystem (:mod:`repro.replay`): one synthetic trace spec, one shared
cluster, and the scheduling modes to replay the *same* trace under.
The ``replay`` analysis callback generates the trace from the run's
seed, replays it once per mode through the epoch scheduler (rate cells
ride the context's shared sweep runner, so they hit the same disk cache
and quarantine machinery as every sweep), and streams per-job rows into
a chunked CSV sink next to the primary output — the summary table is
computed *incrementally* by the sink's aggregate, so a million-row
replay never holds its rows.

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

from ..core.wizard import ALGORITHMS
from ..registry import did_you_mean
from ..replay.admission import ADMISSIONS
from ..replay.aggregate import ReplayAggregate
from ..replay.engine import JOB_COLUMNS, ReplayCluster, ReplayError, replay
from ..replay.sink import CsvChunkSink
from ..replay.trace import SyntheticTraceSpec, generate_trace
from .engine import ScenarioRun
from .registry import register_analysis, register_scenario
from .resultset import Report
from .scenario import Scenario
from .scenarios import render_rows


@dataclass(frozen=True)
class ReplayScenario:
    """Declarative description of one trace-replay study.

    ``modes`` are replayed in order over the identical trace: the
    sentinel ``"mix"`` dispatches each job to its own trace algorithm;
    any wizard algorithm name applies uniformly. ``chunk_rows`` sets the
    sink's commit granularity (rows per fsync'd chunk).
    """

    trace: SyntheticTraceSpec
    cluster: ReplayCluster
    modes: tuple[str, ...] = ("baseline", "mix")
    admission: str = "fifo"
    chunk_rows: int = 256

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


@register_analysis("replay")
def _replay(run: ScenarioRun) -> Report:
    rp: ReplayScenario = run.param("replay")
    traces = generate_trace(rp.trace, seed=run.seed)
    jobs_stem = f"{run.scenario.output}_jobs"
    jobs_path = os.path.join(run.ctx.results_dir, f"{jobs_stem}.csv")
    aggregate = ReplayAggregate(rp.cluster.total_slots)
    sink = CsvChunkSink(
        jobs_path, JOB_COLUMNS, chunk_rows=rp.chunk_rows, aggregate=aggregate
    )
    stats = []
    try:
        for mode in rp.modes:
            res = replay(
                traces,
                rp.cluster,
                runner=run.sweep,
                algorithm=mode,
                admission=rp.admission,
                config=run.sim_config(),
                sink=sink,
                log=run.log,
            )
            run.log(
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
    finally:
        info = sink.close()
    # scenario runs are one-shot (the standalone ``tictac-repro replay``
    # command owns crash-resume), so drop the manifest sidecar and keep
    # the results directory to the committed CSVs.
    os.remove(sink.manifest_path)
    run.sweep.telemetry.add("replay_sink_rows", info["rows"])
    run.sweep.telemetry.add("replay_sink_chunks", info["chunks"])
    rows = aggregate.summary_rows()
    text = (
        render_rows(rows, run.scenario.title)
        + "\n"
        + render_rows(stats, "replay run stats (per mode)")
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
    analyze="replay",
    backends=("jobmix",),
    aux_outputs=("cluster_day_jobs", "cluster_day_stats"),
    params=(("replay", CLUSTER_DAY),),
))
