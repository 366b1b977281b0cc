"""Multi-job scenarios: co-scheduling studies as registry entries.

A :class:`JobMixScenario` is the declarative surface of the multi-job
layer (:mod:`repro.sim.jobmix`): a list of jobs (model x backend x
shape x algorithm x arrival offset), the placement policies to compare,
and the platform. Every job-mix scenario holds it as its ``mix``
parameter and shares one cell function, ``_mix_cells``: one
:class:`~repro.sweep.spec.SimCell` per (algorithm, placement), always
including the ``dedicated`` reference placement. The generic ``_jobmix``
analysis runs those cells through the shared sweep runner (so mixes hit
the same disk cache and worker pool as single-job sweeps), and reports
per-job completion time (JCT), slowdown vs dedicated, mix makespan and
Jain fairness.

Two studies ship:

* ``jobmix_contention`` — two identical PS jobs, the second arriving
  mid-flight of the first, on the communication-bound envC platform:
  ``packed`` placement makes their transfers share host NICs and the
  late job pays a measurable contention tax; ``spread`` (given enough
  hosts) recovers the dedicated numbers.
* ``jobmix_crosstalk`` — a TIC job and a TAC job co-scheduled: does
  per-job transfer scheduling survive cross-job interference, and does
  one job's schedule help or hurt its neighbour?
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis import format_table
from ..backends.placement import place_jobs
from ..sim.jobmix import JobMixSpec, JobSpec, job_label
from ..sweep.spec import SimCell
from .engine import ScenarioRun
from .registry import register_scenario
from .resultset import Report
from .scenario import Scenario


@dataclass(frozen=True)
class JobMixScenario:
    """Declarative description of one co-scheduling study.

    ``algorithms`` entries are engine algorithm names; the sentinel
    ``"mix"`` dispatches each job to its own :attr:`JobSpec.algorithm`.
    ``n_hosts=0`` auto-sizes the shared cluster to the minimum feasible
    host count — pass a larger count to give ``spread``/``rack_aware``
    room to separate jobs.
    """

    jobs: tuple[JobSpec, ...]
    placements: tuple[str, ...] = ("packed",)
    platform: str = "envC"
    algorithms: tuple[str, ...] = ("mix",)
    n_hosts: int = 0
    slots_per_host: int = 2

    def all_placements(self) -> tuple[str, ...]:
        """``dedicated`` (the slowdown denominator) first, then the
        declared placements in order."""
        declared = tuple(p for p in self.placements if p != "dedicated")
        return ("dedicated",) + declared

    def mix_spec(self, placement: str) -> JobMixSpec:
        return JobMixSpec(
            jobs=self.jobs,
            placement=placement,
            n_hosts=self.n_hosts,
            slots_per_host=self.slots_per_host,
        )

    def cells(self, cfg) -> list[SimCell]:
        """One cell per (algorithm, placement), algorithm-major."""
        return [
            SimCell(
                model=self.jobs[0].model,
                spec=self.mix_spec(placement),
                algorithm=algorithm,
                platform=self.platform,
                config=cfg,
            )
            for algorithm in self.algorithms
            for placement in self.all_placements()
        ]

    def hosts_used(self, placement: str) -> int:
        """Distinct hosts the placement actually occupies."""
        devices_by_job = [
            [f"{job_label(i)}/{d}" for d in job.devices()]
            for i, job in enumerate(self.jobs)
        ]
        mapping = place_jobs(
            devices_by_job,
            placement,
            n_hosts=self.n_hosts,
            slots_per_host=self.slots_per_host,
        )
        return len(set(mapping.values()))


def _jain(values: list[float]) -> float:
    """Jain's fairness index over positive values: 1 is perfectly fair,
    1/n is maximally unfair."""
    if not values:
        return 1.0
    square_of_sum = sum(values) ** 2
    sum_of_squares = sum(v * v for v in values)
    return square_of_sum / (len(values) * sum_of_squares) if sum_of_squares else 1.0


def _job_stats(res, mix: JobMixScenario) -> tuple[dict[str, float], float]:
    """(mean JCT per job label, mean mix makespan) over measured
    iterations. A job's completion time is its last-op finish minus its
    arrival offset (roots release at the offset, so the finish times
    already include it)."""
    n = len(res.iterations)
    jct = {}
    for i, job in enumerate(mix.jobs):
        label = job_label(i)
        finish = sum(it.job_finish[label] for it in res.iterations) / n
        jct[label] = finish - job.arrival
    makespan = sum(it.makespan for it in res.iterations) / n
    return jct, makespan


def _mix_cells(run: ScenarioRun) -> list[SimCell]:
    """The cells every job-mix scenario sweeps: its ``mix`` parameter's."""
    return run.param("mix").cells(run.sim_config())


def _mix_tables(run: ScenarioRun) -> tuple:
    """The JCT/fairness tables every job-mix analysis shares: per-job
    rows, the placement summary, and the swept cells keyed by
    (algorithm, placement) (so callers can reuse any cell, e.g. to trace
    it). Numbers are identical through every caller — the sweep cache
    sees one cell set."""
    mix: JobMixScenario = run.param("mix")
    cells = _mix_cells(run)
    by_cell = dict(zip(cells, run.sweep.run_cells(cells)))
    cell_for = {(cell.algorithm, cell.spec.placement): cell for cell in cells}

    rows = []
    summary = []
    for algorithm in mix.algorithms:
        ded_jct, ded_makespan = _job_stats(
            by_cell[cell_for[(algorithm, "dedicated")]], mix
        )
        for placement in mix.all_placements():
            jct, makespan = _job_stats(
                by_cell[cell_for[(algorithm, placement)]], mix
            )
            slowdowns = []
            for i, job in enumerate(mix.jobs):
                label = job_label(i)
                slowdown = jct[label] / ded_jct[label]
                slowdowns.append(slowdown)
                rows.append(
                    {
                        "algorithm": algorithm,
                        "placement": placement,
                        "job": label,
                        "model": job.model,
                        "job_algorithm": job.algorithm,
                        "arrival_s": round(job.arrival, 6),
                        "jct_s": round(jct[label], 6),
                        "dedicated_jct_s": round(ded_jct[label], 6),
                        "slowdown": round(slowdown, 4),
                    }
                )
            summary.append(
                {
                    "algorithm": algorithm,
                    "placement": placement,
                    "hosts": mix.hosts_used(placement),
                    "makespan_s": round(makespan, 6),
                    "dedicated_makespan_s": round(ded_makespan, 6),
                    "stretch": round(makespan / ded_makespan, 4),
                    "mean_slowdown": round(
                        sum(slowdowns) / len(slowdowns), 4
                    ),
                    "jain_fairness": round(_jain(slowdowns), 4),
                }
            )
            if placement != "dedicated":
                worst = max(slowdowns)
                run.log(
                    f"  jobmix {algorithm} {placement}: makespan "
                    f"{makespan:.4f}s ({makespan / ded_makespan:.3f}x "
                    f"dedicated), worst slowdown {worst:.3f}x"
                )
    return rows, summary, cell_for


def _mix_report(run: ScenarioRun, rows, summary) -> Report:
    summary_name = f"{run.scenario.output}_summary"
    text = (
        format_table(rows, title=run.scenario.title)
        + "\n"
        + format_table(summary, title="placement summary (makespan + fairness)")
    )
    return Report(rows=rows, text=text, tables={summary_name: summary})


def _jobmix(run: ScenarioRun) -> Report:
    rows, summary, _ = _mix_tables(run)
    return _mix_report(run, rows, summary)


def _jobmix_starvation(run: ScenarioRun) -> Report:
    """The oversubscribed-rack starvation study (ROADMAP follow-up to
    ``jobmix_crosstalk``): the standard JCT/fairness tables, joined with
    the :mod:`repro.obs` per-job diagnostics — each (algorithm,
    placement) cell is traced for one measured iteration and its per-job
    transfer-wait starvation ratios, peak link utilization and priority
    inversions land in the tables. Answers "does one job's TAC starve a
    neighbour under skewed 4-job mixes?" with queue-level evidence
    rather than end-time inference.
    """
    from ..obs.capture import trace_cell

    mix: JobMixScenario = run.param("mix")
    rows, summary, cell_for = _mix_tables(run)
    by_key = {(r["algorithm"], r["placement"], r["job"]): r for r in rows}
    for algorithm in mix.algorithms:
        for placement in mix.all_placements():
            cap = trace_cell(cell_for[(algorithm, placement)])
            trace = cap.trace
            for stats in trace.job_stats():
                row = by_key[(algorithm, placement, stats["job"])]
                row["mean_transfer_wait_s"] = round(
                    stats["mean_transfer_wait_s"], 6
                )
                row["starvation"] = round(stats["starvation"], 4)
            _, util = trace.link_utilization(bins=40)
            peak = max(float(u.max()) for u in util.values())
            srow = next(
                s
                for s in summary
                if s["algorithm"] == algorithm and s["placement"] == placement
            )
            srow["max_starvation"] = round(
                max(s["starvation"] for s in trace.job_stats()), 4
            )
            srow["peak_link_util"] = round(peak, 4)
            srow["priority_inversions"] = trace.out_of_order_handoffs
            if placement != "dedicated":
                run.log(
                    f"  starvation {algorithm} {placement}: max "
                    f"{srow['max_starvation']:.2f}x mean wait, peak link "
                    f"util {peak:.2f}"
                )
    return _mix_report(run, rows, summary)


# ======================================================================
# Registered studies
# ======================================================================

#: Two identical PS jobs; the second arrives while the first is
#: mid-iteration, so its parameter broadcasts land inside the other
#: job's communication phase and the shared NICs serialize them.
#: n_hosts=6 gives ``spread`` one host per device (full separation).
CONTENTION_MIX = JobMixScenario(
    jobs=(
        JobSpec("AlexNet v2", n_workers=2, n_ps=1),
        JobSpec("AlexNet v2", n_workers=2, n_ps=1, arrival=6.0),
    ),
    placements=("packed", "spread"),
    platform="envC",
    algorithms=("baseline",),
    n_hosts=6,
)

#: A TIC job and a TAC job sharing hosts: the algorithm axis compares
#: no scheduling, one algorithm for both jobs, and per-job dispatch
#: ("mix" — VGG under TIC, Inception under TAC).
CROSSTALK_MIX = JobMixScenario(
    jobs=(
        JobSpec("VGG-16", n_workers=2, n_ps=1, algorithm="tic"),
        JobSpec("Inception v3", n_workers=2, n_ps=1, algorithm="tac", arrival=2.0),
    ),
    placements=("packed",),
    platform="envC",
    algorithms=("baseline", "tic", "tac", "mix"),
)

register_scenario(Scenario(
    name="jobmix_contention",
    title="Job-mix contention: packed vs spread placement on shared NICs (envC)",
    output="jobmix_contention",
    analyze=_jobmix,
    cells=_mix_cells,
    backends=("jobmix",),
    aux_outputs=("jobmix_contention_summary",),
    params=(("mix", CONTENTION_MIX),),
))

#: Four jobs, twelve logical devices, twelve host slots on two racks
#: (4+2 hosts at rack_size=4): zero headroom, so every placement except
#: ``dedicated`` co-locates somebody. The mix is deliberately skewed —
#: two communication-heavy VGG-16 TAC jobs bracketing two lighter TIC
#: jobs, arrivals staggered — the shape the ROADMAP flagged as the open
#: starvation question after ``jobmix_crosstalk`` cleared 2-job mixes.
STARVATION_MIX = JobMixScenario(
    jobs=(
        JobSpec("VGG-16", n_workers=2, n_ps=1, algorithm="tac"),
        JobSpec("Inception v1", n_workers=2, n_ps=1, algorithm="tic", arrival=1.0),
        JobSpec("AlexNet v2", n_workers=2, n_ps=1, algorithm="tic", arrival=2.0),
        JobSpec("VGG-16", n_workers=2, n_ps=1, algorithm="tac", arrival=3.0),
    ),
    placements=("packed", "rack_aware"),
    platform="envC",
    algorithms=("baseline", "mix"),
    n_hosts=6,
)

register_scenario(Scenario(
    name="jobmix_crosstalk",
    title="Job-mix crosstalk: TIC and TAC jobs co-scheduled (envC)",
    output="jobmix_crosstalk",
    analyze=_jobmix,
    cells=_mix_cells,
    backends=("jobmix",),
    aux_outputs=("jobmix_crosstalk_summary",),
    params=(("mix", CROSSTALK_MIX),),
))

register_scenario(Scenario(
    name="jobmix_starvation",
    title="Job-mix starvation: four skewed jobs on an oversubscribed rack (envC)",
    output="jobmix_starvation",
    analyze=_jobmix_starvation,
    cells=_mix_cells,
    backends=("jobmix",),
    aux_outputs=("jobmix_starvation_summary",),
    params=(("mix", STARVATION_MIX),),
))
