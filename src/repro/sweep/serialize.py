"""Lossless JSON round-trip for simulation results.

The cache stores :class:`~repro.sim.metrics.SimulationResult` as JSON.
Python's JSON encoder emits the shortest float representation that parses
back to the identical IEEE-754 double, so a cached result reproduces the
exact numbers of a fresh simulation — the equality the sweep tests assert
bitwise. Summaries are all a result holds: per-op time arrays live on the
engine's ``IterationRecord`` (and :class:`repro.obs.Trace`), never here.
"""

from __future__ import annotations

from ..core.efficiency import EfficiencyReport
from ..sim.metrics import IterationResult, SimulationResult

#: bumped whenever the layout changes, so entries written in an older
#: layout are recomputed instead of served (format 2 has no ``"warmup"``
#: list: warm-up iterations are not simulated).
RESULT_FORMAT = 2


def iteration_to_dict(it: IterationResult) -> dict:
    data = {
        "makespan": it.makespan,
        "worker_finish": dict(it.worker_finish),
        "efficiency": {
            "makespan": it.efficiency.makespan,
            "upper": it.efficiency.upper,
            "lower": it.efficiency.lower,
        },
        "out_of_order_handoffs": it.out_of_order_handoffs,
    }
    # job-mix extension: emitted only when present so single-job cache
    # entries keep their pre-mix byte layout.
    if it.job_finish:
        data["job_finish"] = dict(it.job_finish)
    return data


def iteration_from_dict(data: dict) -> IterationResult:
    eff = data["efficiency"]
    return IterationResult(
        makespan=data["makespan"],
        worker_finish=dict(data["worker_finish"]),
        efficiency=EfficiencyReport(
            makespan=eff["makespan"], upper=eff["upper"], lower=eff["lower"]
        ),
        out_of_order_handoffs=data["out_of_order_handoffs"],
        job_finish=dict(data.get("job_finish", {})),
    )


def result_to_dict(result: SimulationResult) -> dict:
    return {
        "format": RESULT_FORMAT,
        "model": result.model,
        "batch_size": result.batch_size,
        "n_workers": result.n_workers,
        "n_ps": result.n_ps,
        "workload": result.workload,
        "algorithm": result.algorithm,
        "platform": result.platform,
        "n_params": result.n_params,
        "iterations": [iteration_to_dict(it) for it in result.iterations],
    }


def result_from_dict(data: dict) -> SimulationResult:
    version = data.get("format")
    if version != RESULT_FORMAT:
        raise ValueError(
            f"unsupported result format {version!r} (expected {RESULT_FORMAT})"
        )
    return SimulationResult(
        model=data["model"],
        batch_size=data["batch_size"],
        n_workers=data["n_workers"],
        n_ps=data["n_ps"],
        workload=data["workload"],
        algorithm=data["algorithm"],
        platform=data["platform"],
        n_params=data["n_params"],
        iterations=[iteration_from_dict(d) for d in data["iterations"]],
    )
