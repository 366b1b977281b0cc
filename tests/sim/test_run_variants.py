"""Variants of one compile-once group reproduce the golden matrix.

The sweep runner simulates the cells of a group as several
:class:`~repro.sim.SimVariant` objects over ONE shared
:class:`~repro.sim.CompiledCore`, each run as a ``run_iterations``
batch. These tests pin that this grouping never changes results: every
golden case, run as a batch on a core another variant has already
driven, reproduces the committed fingerprints exactly.
"""

from __future__ import annotations

import pytest

from repro.sim import CompiledCore, SimConfig, SimVariant

from .test_engine_golden import (
    _GOLDEN,
    FLAT,
    ITERATIONS,
    PLATFORMS,
    build_cluster,
    fingerprint,
    layerwise,
    make_config,
)


@pytest.mark.parametrize(
    "case_rec", _GOLDEN["cases"], ids=[c["case"]["name"] for c in _GOLDEN["cases"]]
)
def test_golden_matrix_through_batched_lane(case_rec):
    """Every golden case run as one ``run_iterations`` batch, on a core
    shared with a sibling variant that ran first, reproduces the
    committed reference fingerprints exactly."""
    case = case_rec["case"]
    ir, cluster = build_cluster(case["backend"])
    platform = FLAT if case["platform"] == "flat" else PLATFORMS[case["platform"]]
    core = CompiledCore(cluster, platform)
    schedule = None if case["schedule"] == "baseline" else layerwise(ir)
    sibling = SimVariant(core, schedule, SimConfig(jitter_sigma=0.05, seed=99))
    sibling.run_iterations(0, 2)
    sim = SimVariant(core, schedule, make_config(case["config"]))
    records = sim.run_iterations(0, ITERATIONS)
    assert [fingerprint(sim, r) for r in records] == case_rec["iterations"]
