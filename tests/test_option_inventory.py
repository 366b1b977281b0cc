"""The settable surface of the cluster specs and the wizard/builder entry
points, pinned.

Every option must earn its keep: a field or keyword that no scenario,
CLI flag, example or benchmark sets is a constant in disguise. These
pins make adding one (or bringing a deleted one back) a deliberate edit
of this file rather than a side effect.
"""

import dataclasses
import inspect

import pytest

from repro.backends import prepare_comm_schedule
from repro.backends.placement import place_jobs
from repro.collectives import CollectiveSpec
from repro.collectives.partition import partition_tensors
from repro.core.wizard import compute_schedule
from repro.ps import ClusterSpec, build_cluster_graph, build_reference_partition
from repro.replay import ReplayCluster
from repro.sim import JobMixSpec, JobSpec, SimConfig
from repro.timing import estimate_time_oracle

SPEC_FIELDS = {
    SimConfig: (
        "seed", "enforcement", "grpc_reorder_prob", "jitter_sigma",
        "chunk_bytes", "iterations", "warmup", "device_slowdown", "trace",
        "faults",
    ),
    ClusterSpec: ("n_workers", "n_ps", "workload", "sharding"),
    CollectiveSpec: ("n_workers", "topology", "partition_bytes"),
    JobSpec: (
        "model", "backend", "n_workers", "n_ps", "algorithm", "arrival",
        "workload", "sharding", "faults",
    ),
    JobMixSpec: ("jobs", "placement", "n_hosts", "slots_per_host"),
    ReplayCluster: ("n_hosts", "slots_per_host", "placement", "platform"),
}

PARAMETERS = {
    compute_schedule: ("reference", "algorithm", "oracle", "platform", "seed"),
    prepare_comm_schedule: ("ir", "spec", "algorithm", "platform", "seed"),
    estimate_time_oracle: ("graph", "platform", "seed"),
    build_cluster_graph: ("ir", "spec", "n_iterations"),
    build_reference_partition: ("ir", "workload", "n_ps", "sharding"),
    partition_tensors: ("params", "partition_bytes"),
    place_jobs: ("devices_by_job", "policy", "n_hosts", "slots_per_host"),
}


@pytest.mark.parametrize("spec_type", SPEC_FIELDS, ids=lambda t: t.__name__)
def test_spec_fields_are_pinned(spec_type):
    fields = tuple(f.name for f in dataclasses.fields(spec_type))
    assert fields == SPEC_FIELDS[spec_type]


@pytest.mark.parametrize("fn", PARAMETERS, ids=lambda f: f.__name__)
def test_entry_point_parameters_are_pinned(fn):
    params = tuple(inspect.signature(fn).parameters)
    assert params == PARAMETERS[fn]
