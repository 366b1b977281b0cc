"""Tiled single-job cores equal cores compiled from the spliced DAG.

:class:`~repro.sim.engine.CompiledCore` compiles a PS or all-reduce
cluster from its block layout (:func:`repro.sim.compile.tile_core`): the
worker replica is compiled once and placed at every worker's (and
iteration's) offset beside the backend's glue ops. The reference is the
traversal compile of the cluster's :attr:`graph`, spliced on demand.
Every compiled array and state attribute and the per-device compute ops
must be equal, and compiling must never splice the graph.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.collectives import CollectiveSpec, build_collective_graph
from repro.collectives.spec import TOPOLOGIES
from repro.models import build_model
from repro.models.zoo import MODELS
from repro.ps import ClusterSpec, build_cluster_graph
from repro.ps.cluster import WORKLOADS
from repro.ps.sharding import STRATEGIES
from repro.sim import CompiledCore
from repro.timing import PLATFORMS

from ..conftest import examples
from ..graph.test_builder_digests import SHAPES, graph_digest
from .test_jobmix_compose import PLATFORM, assert_cores_equal, spliced_core

MIB = 2**20


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_tiled_core_equals_spliced_core(shape):
    cluster = SHAPES[shape][0]()
    assert_cores_equal(CompiledCore(cluster, PLATFORM), spliced_core(cluster))


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_compile_never_splices_the_cluster_graph(shape):
    build, digest = SHAPES[shape]
    cluster = build()
    CompiledCore(cluster, PLATFORM)
    assert cluster.tiling._graph is None
    assert graph_digest(cluster) == digest


@settings(
    max_examples=examples(12),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    model=st.sampled_from(sorted(MODELS)),
    n_workers=st.integers(1, 5),
    backend=st.sampled_from(("ps", "allreduce")),
    topology=st.sampled_from(TOPOLOGIES),
    partition=st.sampled_from((1 * MIB, 4 * MIB, 16 * MIB)),
    n_ps=st.integers(1, 3),
    sharding=st.sampled_from(STRATEGIES),
    workload=st.sampled_from(WORKLOADS),
    n_iterations=st.integers(1, 2),
    platform=st.sampled_from(sorted(PLATFORMS)),
)
# one worker: no all-reduce transfer at all, so no wire channel
@example(
    model="AlexNet v2", n_workers=1, backend="allreduce", topology="ring",
    partition=4 * MIB, n_ps=1, sharding="greedy", workload="training",
    n_iterations=1, platform="envC",
)
def test_tiled_core_equals_spliced_core_over_shapes(
    model, n_workers, backend, topology, partition, n_ps, sharding, workload,
    n_iterations, platform,
):
    ir = build_model(model)
    if backend == "ps":
        cluster = build_cluster_graph(
            ir, ClusterSpec(n_workers, n_ps, workload, sharding),
            n_iterations=n_iterations,
        )
    else:
        cluster = build_collective_graph(
            ir, CollectiveSpec(n_workers, topology, partition_bytes=partition)
        )
    plat = PLATFORMS[platform]
    assert_cores_equal(CompiledCore(cluster, plat), spliced_core(cluster, plat))
