"""Multi-job union path: graph structure, schedules, contention, caching.

Complements :mod:`tests.sim.test_jobmix_golden` (1-job bit-exactness):
here the mixes are real — several jobs, arrival offsets, shared hosts —
and the invariants are structural (namespaces partition the union DAG),
semantic (contention can only hurt; arrivals delay roots) and
infrastructural (cache keys fold the mix structure in; the process
pool and JSON serialization carry the per-job surfaces).
"""

from __future__ import annotations

import pytest

from repro.backends import (
    backend_for_spec,
    build_comm_graph,
    make_spec,
    prepare_comm_schedule,
)
from repro.models import build_model
from repro.sim import (
    JobMixSpec,
    JobSpec,
    SimConfig,
    build_jobmix_graph,
    prepare_jobmix_schedule,
    simulate_cluster,
)
from repro.sweep import SimCell
from repro.sweep.serialize import result_from_dict, result_to_dict
from repro.timing import PLATFORMS

CFG = SimConfig(iterations=2, warmup=1)

TWO_ALEX = JobMixSpec(
    jobs=(
        JobSpec("AlexNet v2", n_workers=2, n_ps=1),
        JobSpec("AlexNet v2", n_workers=2, n_ps=1, arrival=6.0),
    ),
    placement="packed",
    n_hosts=6,
)


def test_mix_spec_compat_surface():
    assert TWO_ALEX.n_workers == 4
    assert TWO_ALEX.n_ps == 2
    assert TWO_ALEX.workload == "training"
    assert TWO_ALEX.labels == ("j0", "j1")
    solo = TWO_ALEX.solo(1)
    assert solo.placement == "dedicated" and len(solo.jobs) == 1
    assert solo.jobs[0].arrival == 6.0


def test_mix_spec_rejects_unknown_placement_with_hint():
    from repro.backends.placement import UnknownPlacementError

    with pytest.raises(UnknownPlacementError, match="did you mean"):
        JobMixSpec(jobs=TWO_ALEX.jobs, placement="spreed")


def test_mix_spec_rejects_negative_n_hosts():
    # n_hosts=0 auto-sizes; a negative count must not run auto-sized
    # under a cache key distinct from n_hosts=0.
    with pytest.raises(ValueError, match="n_hosts"):
        JobMixSpec(jobs=TWO_ALEX.jobs, placement="packed", n_hosts=-1)


def test_mix_spec_rejects_zero_slots_per_host():
    # must fail at construction, not at graph build (where a sweep would
    # retry and then quarantine the cell).
    with pytest.raises(ValueError, match="slots_per_host"):
        JobMixSpec(jobs=TWO_ALEX.jobs, placement="packed", slots_per_host=0)


@pytest.mark.parametrize("arrival", [-1.0, float("nan"), float("inf")])
def test_job_spec_rejects_bad_arrival(arrival):
    # NaN would sail through a plain `< 0` check and poison the deferred-
    # release event table; infinities would defer the job forever.
    with pytest.raises(ValueError, match="arrival"):
        JobSpec("AlexNet v2", n_workers=2, n_ps=1, arrival=arrival)


def test_job_spec_rejects_unknown_model_with_hint():
    with pytest.raises(ValueError, match="unknown model .*did you mean 'AlexNet v2'"):
        JobSpec("Alexnet v2")


def test_job_spec_rejects_unknown_algorithm_with_hint():
    # once accepted, then retried and quarantined as a sweep cell
    with pytest.raises(ValueError, match="unknown algorithm .*did you mean 'tac'"):
        JobSpec("AlexNet v2", algorithm="tacc")


def test_job_spec_rejects_unknown_backend_with_hint():
    with pytest.raises(ValueError, match="unknown backend .*did you mean 'allreduce'"):
        JobSpec("AlexNet v2", backend="allreduc")
    with pytest.raises(ValueError, match="unknown backend 'jobmix'"):
        JobSpec("AlexNet v2", backend="jobmix")  # a mix does not nest


def test_ps_job_needs_a_parameter_server():
    with pytest.raises(ValueError, match="n_ps >= 1"):
        JobSpec("AlexNet v2", n_ps=0)
    with pytest.raises(ValueError, match="workload must be one of"):
        JobSpec("AlexNet v2", workload="serving")


def test_allreduce_job_must_train():
    # once accepted: it simulated training but reported 'inference'
    with pytest.raises(ValueError, match="only trains"):
        JobSpec("AlexNet v2", backend="allreduce", workload="inference")
    assert JobSpec("AlexNet v2", backend="allreduce", n_ps=0).to_spec().n_workers == 2


def test_mix_spec_is_a_registered_backend():
    assert backend_for_spec(TWO_ALEX).name == "jobmix"


def test_union_graph_partitions_by_job():
    ir = build_model("AlexNet v2")
    mix = build_jobmix_graph(ir, TWO_ALEX)
    singles = [
        build_comm_graph(build_model(j.model), j.to_spec())
        for j in TWO_ALEX.jobs
    ]
    assert len(mix.graph) == sum(len(s.graph) for s in singles)
    ids0, ids1 = set(mix.job_ops["j0"]), set(mix.job_ops["j1"])
    assert not (ids0 & ids1)
    assert len(ids0 | ids1) == len(mix.graph)
    for op in mix.graph:
        label = op.name.split("/", 1)[0]
        assert label in ("j0", "j1")
        assert op.op_id in (ids0 if label == "j0" else ids1)
    mix.graph.validate()
    assert mix.job_arrivals == {"j0": 0.0, "j1": 6.0}
    # packed on 6 hosts x 2 slots -> the 6 devices share 3 hosts
    assert set(mix.host_map) == {
        f"j{i}/{d}" for i, j in enumerate(TWO_ALEX.jobs) for d in j.devices()
    }
    assert len(set(mix.host_map.values())) == 3


def test_transfers_and_worker_ops_are_namespaced():
    ir = build_model("AlexNet v2")
    mix = build_jobmix_graph(ir, TWO_ALEX)
    assert all(w.startswith(("j0/", "j1/")) for w in mix.worker_ops)
    for link, transfers in mix.transfers_by_link.items():
        prefixes = {t.param.split("/", 1)[0] for t in transfers}
        assert len(prefixes) == 1  # links never mix jobs' transfers


def test_schedule_composition_prefixes_priorities():
    platform = PLATFORMS["envC"]
    sched = prepare_jobmix_schedule(None, TWO_ALEX, "tic", platform)
    assert sched.priorities  # both jobs contribute
    assert all(k.startswith(("j0/", "j1/")) for k in sched.priorities)
    single = prepare_comm_schedule(
        build_model("AlexNet v2"), TWO_ALEX.jobs[0].to_spec(), "tic", platform
    )
    assert {
        k.removeprefix("j0/")
        for k in sched.priorities if k.startswith("j0/")
    } == set(single.priorities)


def test_mix_algorithm_dispatches_per_job():
    platform = PLATFORMS["envC"]
    spec = JobMixSpec(
        jobs=(
            JobSpec("AlexNet v2", n_workers=2, n_ps=1, algorithm="tic"),
            JobSpec("AlexNet v2", n_workers=2, n_ps=1, algorithm="baseline"),
        ),
    )
    sched = prepare_jobmix_schedule(None, spec, "mix", platform)
    assert sched.meta["jobs"] == ("tic", "baseline")
    assert all(k.startswith("j0/") for k in sched.priorities)  # j1 is baseline


# ----------------------------------------------------------------------
# Semantics: arrivals + contention
# ----------------------------------------------------------------------

def _finishes(spec: JobMixSpec, **kw) -> dict[str, list[float]]:
    res = simulate_cluster(
        spec.jobs[0].model, spec, platform="envC", config=CFG, **kw
    )
    return {
        label: [it.job_finish[label] for it in res.iterations]
        for label in spec.labels
    }


def test_arrival_offset_delays_a_job():
    dedicated = JobMixSpec(jobs=TWO_ALEX.jobs, placement="dedicated")
    fin = _finishes(dedicated)
    # j1 starts 6s late on its own hosts: it can never finish before 6s,
    # and it must outlast j0 (same model, same shape, later start).
    assert all(f > 6.0 for f in fin["j1"])
    assert all(f1 > f0 for f0, f1 in zip(fin["j0"], fin["j1"]))


def test_shared_makespan_dominates_dedicated_for_every_job():
    """Contention sanity: co-scheduling can only hurt — the shared-link
    (packed) makespan is >= the dedicated makespan of every job, and on
    the contention platform strictly exceeds each."""
    dedicated = JobMixSpec(jobs=TWO_ALEX.jobs, placement="dedicated")
    ded = _finishes(dedicated)
    packed = _finishes(TWO_ALEX)
    for i in range(len(packed["j0"])):
        mix_makespan = max(packed["j0"][i], packed["j1"][i])
        for label in ("j0", "j1"):
            assert mix_makespan > ded[label][i]


def test_spread_with_room_recovers_dedicated_behaviour():
    spread = JobMixSpec(jobs=TWO_ALEX.jobs, placement="spread", n_hosts=6)
    dedicated = JobMixSpec(jobs=TWO_ALEX.jobs, placement="dedicated")
    fin_s = _finishes(spread)
    fin_d = _finishes(dedicated)
    for label in ("j0", "j1"):
        for a, b in zip(fin_s[label], fin_d[label]):
            assert a == pytest.approx(b, rel=1e-3)


def test_kernels_agree_on_mixes():
    """A mix iteration's record does not depend on the batch it runs
    in: a longer run reproduces a shorter run's iterations exactly."""
    short = simulate_cluster("AlexNet v2", TWO_ALEX, platform="envC", config=CFG)
    long = simulate_cluster(
        "AlexNet v2", TWO_ALEX, platform="envC",
        config=CFG.with_(iterations=CFG.iterations + 3),
    )
    assert len(long.iterations) == len(short.iterations) + 3
    for a, b in zip(short.iterations, long.iterations):
        assert a.makespan == b.makespan
        assert a.job_finish == b.job_finish


# ----------------------------------------------------------------------
# Infrastructure: cache keys, serialization, the process pool
# ----------------------------------------------------------------------

def _cell(spec: JobMixSpec, algorithm: str = "baseline") -> SimCell:
    return SimCell(
        model=spec.jobs[0].model, spec=spec, algorithm=algorithm,
        platform="envC", config=CFG,
    )


def test_cache_keys_fold_in_mix_structure():
    base = _cell(TWO_ALEX).cache_key_material()
    assert _cell(TWO_ALEX).cache_key_material() == base
    spread = JobMixSpec(jobs=TWO_ALEX.jobs, placement="spread", n_hosts=6)
    assert _cell(spread).cache_key_material() != base
    later = JobMixSpec(
        jobs=(TWO_ALEX.jobs[0],
              JobSpec("AlexNet v2", n_workers=2, n_ps=1, arrival=9.0)),
        placement="packed", n_hosts=6,
    )
    assert _cell(later).cache_key_material() != base


def test_result_serialization_round_trips_job_finish():
    res = simulate_cluster(
        "AlexNet v2", TWO_ALEX, platform="envC", config=CFG
    )
    back = result_from_dict(result_to_dict(res))
    for a, b in zip(res.iterations, back.iterations):
        assert a.job_finish == b.job_finish
        assert a.makespan == b.makespan


def test_sweep_runner_and_shared_cores_handle_mixes(tmp_path):
    from repro.sweep import SweepRunner

    cells = [
        _cell(TWO_ALEX),
        _cell(JobMixSpec(jobs=TWO_ALEX.jobs, placement="spread", n_hosts=6)),
    ]
    serial = SweepRunner(jobs=1, cache_dir=str(tmp_path)).run_cells(cells)
    assert SweepRunner(jobs=1, cache_dir=str(tmp_path)).stats is not None
    parallel = SweepRunner(jobs=2, cache_dir=None).run_cells(cells)
    for a, b in zip(serial, parallel):
        assert a.iteration_times.tolist() == b.iteration_times.tolist()
        for x, y in zip(a.iterations, b.iterations):
            assert x.job_finish == y.job_finish
    # cached second pass reproduces the first exactly
    runner = SweepRunner(jobs=1, cache_dir=str(tmp_path))
    again = runner.run_cells(cells)
    assert runner.stats.hits == len(cells)
    for a, b in zip(serial, again):
        for x, y in zip(a.iterations, b.iterations):
            assert x.job_finish == y.job_finish
