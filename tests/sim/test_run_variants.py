"""Variants of one compile-once group reproduce the golden matrix.

The sweep runner simulates the cells of a group as several
:class:`~repro.sim.SimVariant` objects over ONE shared
:class:`~repro.sim.CompiledCore`, each run as a ``run_iterations``
batch. These tests pin that this grouping never changes results: every
golden case, run as a batch on a core another variant has already
driven, reproduces the committed fingerprints exactly.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.sim import CompiledCore, SimConfig, SimVariant, kernel as sim_kernel

from .test_engine_golden import (
    _GOLDEN,
    FLAT,
    ITERATIONS,
    build_cluster,
    get_platform,
    layerwise,
    make_config,
)

#: array kernels runnable on this host ('portable' everywhere, plus
#: 'numba' where installed; they share one code path).
BATCH_KERNELS = ["portable"] + (["numba"] if sim_kernel.HAVE_NUMBA else [])


@pytest.mark.parametrize("kernel", BATCH_KERNELS)
@pytest.mark.parametrize(
    "case_rec", _GOLDEN["cases"], ids=[c["case"]["name"] for c in _GOLDEN["cases"]]
)
def test_golden_matrix_through_batched_lane(case_rec, kernel):
    """Every golden case run as one ``run_iterations`` batch, on a core
    shared with a sibling variant that ran first, reproduces the
    committed reference fingerprints exactly."""
    case = case_rec["case"]
    ir, cluster = build_cluster(case["backend"])
    platform = FLAT if case["platform"] == "flat" else get_platform(case["platform"])
    core = CompiledCore(cluster, platform)
    schedule = None if case["schedule"] == "baseline" else layerwise(ir)
    sibling = SimVariant(
        core, schedule, SimConfig(jitter_sigma=0.05, kernel=kernel, seed=99)
    )
    sibling.run_iterations(0, 2)
    sim = SimVariant(core, schedule, make_config(case["config"]).with_(kernel=kernel))
    records = sim.run_iterations(0, ITERATIONS)
    assert len(records) == ITERATIONS
    for record, expect in zip(records, case_rec["iterations"]):
        digest = hashlib.sha256()
        digest.update(np.ascontiguousarray(record.start).tobytes())
        digest.update(np.ascontiguousarray(record.end).tobytes())
        digest.update(np.ascontiguousarray(record.dedicated).tobytes())
        loads = sim.resource_loads(record)
        ldigest = hashlib.sha256(
            json.dumps(loads, sort_keys=True).encode()
        ).hexdigest()
        assert record.makespan == expect["makespan"]
        assert record.out_of_order_handoffs == expect["out_of_order"]
        assert digest.hexdigest() == expect["arrays_sha256"]
        assert ldigest == expect["loads_sha256"]
