"""Composed job-mix cores equal cores compiled from the spliced union.

:class:`~repro.sim.engine.CompiledCore` builds a mix's core by
concatenating per-shape compiled blocks (:func:`repro.sim.jobmix.compose_core`)
instead of walking the union DAG. The reference here is the traversal
compile of that union (:attr:`JobMixGraph.graph`, spliced on demand),
handed to the core as a plain cluster surface: every compiled array
and state attribute, the per-device compute ops, the §5.1 parameter
groups and the scoped per-job fault plans must be equal.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backends.placement import PLACEMENTS
from repro.faults import FaultPlan, HostFailure, LinkDegradation, StragglerBurst
from repro.sim import (
    CompiledCore,
    JobMixSpec,
    JobSpec,
    SimConfig,
    SimVariant,
    build_jobmix_graph,
)
from repro.timing import PLATFORMS

from ..conftest import examples

PLATFORM = PLATFORMS["envC"]

#: every array attribute of a compiled core.
ARRAY_ATTRS = (
    "base_indeg", "succ_indptr", "succ_indices", "is_transfer", "op_res",
    "t_egress", "t_ingress", "base_dur", "wire_base", "lat", "t_chan",
    "is_chunk", "capacity", "tr_ids", "tr_eg", "tr_in", "comp_ids",
    "comp_res", "root_times", "job_of", "res_first", "chan_first",
)

#: every non-array attribute of a compiled core the engine reads.
STATE_ATTRS = (
    "n", "n_res", "n_wire_channels", "_res_index", "chan_eid", "chan_iid",
    "egress_ids", "eg_chan_lists", "eg_pos", "q_base", "q_slots",
    "chunk_op_ids", "chunk_param_names", "param_groups", "roots", "jobs",
    "platform", "chan_devices", "job_faults",
)
MODELS = ("AlexNet v2", "VGG-16")


#: cluster surfaces the traversal compile reads besides the graph.
SURFACES = (
    "spec", "transfers_by_link", "worker_ops", "chunk_params", "chunk_order",
    "job_ops", "job_arrivals", "host_map",
)


def spliced_core(cluster, platform=PLATFORM) -> CompiledCore:
    """The traversal compile of ``cluster``'s spliced DAG (a job mix's
    union, or a single job's replicas and glue)."""
    surface = SimpleNamespace(
        graph=cluster.graph,
        **{name: getattr(cluster, name) for name in SURFACES
           if hasattr(cluster, name)},
    )
    return CompiledCore(surface, platform)


def assert_cores_equal(got: CompiledCore, want: CompiledCore) -> None:
    for attr in ARRAY_ATTRS:
        a, b = getattr(got, attr), getattr(want, attr)
        assert a.dtype == b.dtype and a.shape == b.shape, attr
        assert np.array_equal(a, b), attr
    for attr in STATE_ATTRS:
        assert getattr(got, attr) == getattr(want, attr), attr
    assert list(got.device_compute_ops) == list(want.device_compute_ops)
    for dev, ids in want.device_compute_ops.items():
        assert np.array_equal(got.device_compute_ops[dev], ids), dev


def job_plan(backend: str, kind: int):
    """A small per-job fault plan written in the job's own device names."""
    if kind == 0:
        return None
    events = [StragglerBurst("worker:0", start=0.01, duration=0.2, factor=2.0)]
    if kind == 2:
        events.append(HostFailure("worker:1", start=0.05, recovery=0.1))
        if backend == "ps":
            events.append(LinkDegradation("ps:0", "worker:0", 0.0, 0.3, 0.5))
    return FaultPlan(tuple(events))


@st.composite
def mixes(draw, min_jobs: int = 1, max_jobs: int = 12) -> JobMixSpec:
    jobs = []
    for _ in range(draw(st.integers(min_jobs, max_jobs))):
        backend = draw(st.sampled_from(("ps", "allreduce")))
        jobs.append(
            JobSpec(
                model=draw(st.sampled_from(MODELS)),
                backend=backend,
                n_workers=draw(st.integers(2, 3)),
                n_ps=draw(st.integers(1, 2)),
                arrival=draw(st.sampled_from((0.0, 0.0, 0.5, 2.25))),
                faults=job_plan(backend, draw(st.integers(0, 2))),
            )
        )
    devices = sum(len(j.devices()) for j in jobs)
    return JobMixSpec(
        jobs=tuple(jobs),
        placement=draw(st.sampled_from(sorted(PLACEMENTS))),
        n_hosts=draw(st.sampled_from((0, devices))),
    )


@settings(
    max_examples=examples(12),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(spec=mixes())
def test_composed_core_equals_spliced_core(spec):
    mix = build_jobmix_graph(None, spec)
    assert_cores_equal(CompiledCore(mix, PLATFORM), spliced_core(mix))


TWELVE = tuple(
    JobSpec(
        model=MODELS[i % 2],
        backend="allreduce" if i % 3 == 0 else "ps",
        n_workers=2 + i % 2,
        n_ps=1,
        arrival=0.25 * i,
        faults=job_plan("allreduce" if i % 3 == 0 else "ps", i % 3),
    )
    for i in range(12)
)


@pytest.mark.parametrize("placement", sorted(PLACEMENTS))
def test_twelve_job_mix_orders_labels_as_strings(placement):
    """Twelve jobs reach label ``j10``, which the union's sorted link
    names place between ``j1`` and ``j2``."""
    spec = JobMixSpec(jobs=TWELVE, placement=placement, n_hosts=32)
    mix = build_jobmix_graph(None, spec)
    got = CompiledCore(mix, PLATFORM)
    want = spliced_core(mix)
    assert_cores_equal(got, want)
    labels = [params[0].split("/", 1)[0] for params, _ids, _acts in got.param_groups]
    assert labels == sorted(labels) and labels.index("j10") < labels.index("j2")
    cfg = SimConfig(iterations=1, warmup=0)
    a = SimVariant(got, None, cfg).run_iteration(0)
    b = SimVariant(want, None, cfg).run_iteration(0)
    assert a.makespan == b.makespan
    assert np.array_equal(a.end, b.end)


def test_compile_never_splices_the_union():
    spec = JobMixSpec(jobs=TWELVE[:3], placement="packed")
    mix = build_jobmix_graph(None, spec)
    core = CompiledCore(mix, PLATFORM)
    assert mix._union is None
    # the union is still there for readers that want op names
    assert len(mix.graph) == core.n
    assert mix.graph.op(core.n - 1).name.startswith("j2/")
