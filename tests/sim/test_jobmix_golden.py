"""Golden regression: a 1-job mix on ``dedicated`` placement IS the
single-job path.

A mix's core is composed from its jobs' own compiled cores
(:mod:`repro.sim.jobmix`), renaming every device, parameter and NIC
under ``j0/`` and keeping each job's channel numbering — so wrapping a
single job in a :class:`~repro.sim.jobmix.JobMixSpec` must change
*nothing*: every
iteration's makespan, per-worker finish time and efficiency report is
bit-identical, and the quick-grid CSV rows
(fig7's PS grid and the allreduce grid) regenerate byte-for-byte.
"""

from __future__ import annotations

import os

import pytest

from repro.analysis import write_csv
from repro.backends import build_comm_graph, make_spec
from repro.core import Schedule
from repro.models import build_model
from repro.sim import (
    CompiledCore,
    JobMixSpec,
    JobSpec,
    SimConfig,
    SimVariant,
    prepare_schedule,
    simulate_cluster,
    summarize_iteration,
)
from repro.sweep.serialize import iteration_to_dict
from repro.timing import PLATFORMS

#: event loops the bit-identity is checked under (the python loop is
#: the only one).
LOOPS = ("python",)

#: micro slices of the fig7 (PS) and allreduce quick grids.
PS_CELLS = [
    ("AlexNet v2", dict(n_workers=2, n_ps=1), "baseline"),
    ("AlexNet v2", dict(n_workers=2, n_ps=1), "tic"),
    ("Inception v1", dict(n_workers=2, n_ps=1), "tac"),
]
AR_CELLS = [
    ("AlexNet v2", dict(n_workers=2), "baseline"),
    ("AlexNet v2", dict(n_workers=2), "tic"),
]


CFG = SimConfig(iterations=3, warmup=1)


def _mix_of(backend: str, model: str, shape: dict, algorithm: str) -> JobMixSpec:
    job = JobSpec(model=model, backend=backend, algorithm=algorithm, **shape)
    return JobMixSpec(jobs=(job,), placement="dedicated")


def _strip_prefix(data: dict) -> dict:
    """Drop the ``j0/`` namespace + the mix-only job_finish block."""
    data = dict(data)
    data.pop("job_finish", None)
    data["worker_finish"] = {
        k.removeprefix("j0/"): v for k, v in data["worker_finish"].items()
    }
    return data


def _iterations(model, spec, algorithm, platform):
    """Summaries of engine indices ``0..warmup+iterations-1`` — the
    warm-up indices a run skips included — built the way
    ``simulate_cluster`` builds its variant."""
    plat = PLATFORMS[platform]
    ir = build_model(model)
    schedule = (
        Schedule("baseline") if algorithm == "baseline"
        else prepare_schedule(ir, spec, algorithm, plat, seed=CFG.seed)
    )
    sim = SimVariant(CompiledCore(build_comm_graph(ir, spec), plat), schedule, CFG)
    return [
        summarize_iteration(sim, record)
        for record in sim.run_iterations(0, CFG.warmup + CFG.iterations)
    ]


def _run_pair(backend, model, shape, algorithm, platform):
    single = _iterations(
        model, make_spec(backend, **shape), algorithm, platform
    )
    mix = _iterations(
        model, _mix_of(backend, model, shape, algorithm), algorithm, platform
    )
    assert len(single) == len(mix) == CFG.warmup + CFG.iterations
    return single, mix


@pytest.mark.parametrize("loop", LOOPS)
@pytest.mark.parametrize("model,shape,algorithm", PS_CELLS)
def test_one_job_mix_is_bit_identical_ps(model, shape, algorithm, loop):
    single, mix = _run_pair("ps", model, shape, algorithm, "envG")
    for s_it, m_it in zip(single, mix):
        assert iteration_to_dict(s_it) == _strip_prefix(iteration_to_dict(m_it))
        # the mix bookkeeping agrees with the iteration it annotates
        assert m_it.job_finish == {"j0": m_it.makespan}


@pytest.mark.parametrize("loop", LOOPS)
@pytest.mark.parametrize("model,shape,algorithm", AR_CELLS)
def test_one_job_mix_is_bit_identical_allreduce(model, shape, algorithm, loop):
    single, mix = _run_pair("allreduce", model, shape, algorithm, "envG")
    for s_it, m_it in zip(single, mix):
        assert iteration_to_dict(s_it) == _strip_prefix(iteration_to_dict(m_it))


@pytest.mark.parametrize("loop", LOOPS)
def test_quick_grid_csv_rows_regenerate_byte_identical(tmp_path, loop):
    """Assemble fig7/allreduce-style CSV rows from both paths and compare
    the written files byte for byte."""

    def rows_for(simulate):
        rows = []
        for backend, cells, platform in (
            ("ps", PS_CELLS, "envG"),
            ("allreduce", AR_CELLS, "envG"),
        ):
            for model, shape, algorithm in cells:
                res = simulate(backend, model, shape, algorithm, platform)
                rows.append(
                    {
                        "model": model,
                        "backend": backend,
                        "workers": res.n_workers,
                        "algorithm": algorithm,
                        "iteration_time_s": round(res.mean_iteration_time, 6),
                        "throughput_sps": round(res.throughput, 1),
                        "efficiency_mean": round(res.mean_efficiency, 4),
                    }
                )
        return rows

    def run_single(backend, model, shape, algorithm, platform):
        return simulate_cluster(
            model, make_spec(backend, **shape), algorithm=algorithm,
            platform=platform, config=CFG,
        )

    def run_mix(backend, model, shape, algorithm, platform):
        return simulate_cluster(
            model, _mix_of(backend, model, shape, algorithm),
            algorithm=algorithm, platform=platform, config=CFG,
        )

    single_csv = write_csv(
        os.path.join(tmp_path, "single.csv"), rows_for(run_single)
    )
    mix_csv = write_csv(os.path.join(tmp_path, "mix.csv"), rows_for(run_mix))
    with open(single_csv, "rb") as f:
        single_bytes = f.read()
    with open(mix_csv, "rb") as f:
        mix_bytes = f.read()
    assert single_bytes == mix_bytes
