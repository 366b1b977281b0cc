"""Engine equivalence: golden records and batch-API identity.

The compile-once/run-many engine rewrite (CompiledCore + SimVariant) is
required to be *bit-exact* against the reference implementation: same RNG
stream per (seed, iteration), same floating-point operation order, same
queue semantics. ``golden_engine.json`` pins the reference engine's output
— per-iteration makespans, out-of-order counts, and SHA-256 digests of the
raw start/end/dedicated arrays and resource loads — across every backend
(PS, ring, hierarchical) x enforcement mode (sender, ready_queue, dag,
none) x jitter on/off, plus edge configs (multi-slot NICs, an unscheduled
baseline, slowdowns, tiny wire chunks).

Regenerate the golden file ONLY for an intentional semantic change::

    PYTHONPATH=src python benchmarks/make_engine_golden.py
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import build_comm_graph
from repro.collectives import CollectiveSpec
from repro.core import Schedule
from repro.ps import ClusterSpec, build_cluster_graph
from repro.sim import (
    CompiledCore,
    SimConfig,
    SimVariant,
    simulate_cell_group,
    simulate_cluster,
)
from repro.timing import PLATFORMS, Platform

from ..conftest import examples, tiny_model

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_engine.json")

#: deterministic platform mirroring test_engine.FLAT (duplicated here so
#: the golden matrix is self-contained for the generator script).
FLAT = Platform(
    name="flat",
    worker_flops=1e10,
    ps_flops=1e10,
    bandwidth_bps=1e8,
    rpc_latency_s=1e-4,
    op_overhead_s=1e-6,
    jitter_sigma=0.0,
)

ITERATIONS = 3

SPECS = {
    "ps": ClusterSpec(2, 1, "training"),
    "ring": CollectiveSpec(n_workers=3, partition_bytes=65536),
    "hier": CollectiveSpec(n_workers=4, topology="hierarchical", partition_bytes=65536),
}

_cluster_cache: dict[str, tuple] = {}


def build_cluster(backend: str):
    """(model IR, cluster graph) for one golden backend, cached."""
    got = _cluster_cache.get(backend)
    if got is None:
        ir = tiny_model()
        spec = SPECS[backend]
        if isinstance(spec, ClusterSpec):
            cluster = build_cluster_graph(ir, spec)
        else:
            cluster = build_comm_graph(ir, spec)
        got = _cluster_cache[backend] = (ir, cluster)
    return got


def layerwise(ir) -> Schedule:
    return Schedule("layerwise", {p.name: i for i, p in enumerate(ir.params)})


def case_matrix() -> list[dict]:
    """Every golden case: the backend x mode x jitter core plus edges."""
    cases = []
    # The core matrix (flat platform, layerwise schedule, the default
    # gRPC slip noise left ON so the rng.random() noise path is covered).
    for backend in SPECS:
        for mode in ("sender", "ready_queue", "dag", "none"):
            for sigma in (0.0, 0.05):
                cases.append(
                    {
                        "name": f"{backend}-{mode}-j{sigma}",
                        "backend": backend,
                        "platform": "flat",
                        "schedule": "layerwise",
                        "config": {
                            "enforcement": mode,
                            "jitter_sigma": sigma,
                            "iterations": 1,
                            "seed": 7,
                        },
                    }
                )
    # Edge configs: each exercises one engine path the matrix misses.
    cases += [
        {"name": "ps-envG-sender", "backend": "ps", "platform": "envG",
         "schedule": "layerwise",
         "config": {"enforcement": "sender", "iterations": 1, "seed": 3}},
        {"name": "ps-baseline", "backend": "ps", "platform": "flat",
         "schedule": "baseline",
         "config": {"enforcement": "sender", "iterations": 1, "seed": 0}},
        {"name": "ps-slowdown", "backend": "ps", "platform": "flat",
         "schedule": "layerwise",
         "config": {"enforcement": "sender",
                    "device_slowdown": [["worker:1", 1.7]],
                    "iterations": 1, "seed": 5}},
        {"name": "ps-small-chunks", "backend": "ps", "platform": "flat",
         "schedule": "layerwise",
         "config": {"enforcement": "ready_queue", "chunk_bytes": 1 << 14,
                    "iterations": 1, "seed": 6}},
    ]
    return cases


def make_config(raw: dict) -> SimConfig:
    raw = dict(raw)
    if "device_slowdown" in raw:
        raw["device_slowdown"] = tuple(tuple(e) for e in raw["device_slowdown"])
    return SimConfig(**raw)


def fingerprint(sim: SimVariant, record) -> dict:
    """One iteration's golden fingerprint: makespan, out-of-order count
    and SHA-256 digests of the per-op arrays and resource loads."""
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(record.start).tobytes())
    digest.update(np.ascontiguousarray(record.end).tobytes())
    digest.update(np.ascontiguousarray(record.dedicated).tobytes())
    loads = sim.resource_loads(record)
    return {
        "makespan": record.makespan,
        "out_of_order": record.out_of_order_handoffs,
        "arrays_sha256": digest.hexdigest(),
        "loads_sha256": hashlib.sha256(
            json.dumps(loads, sort_keys=True).encode()
        ).hexdigest(),
    }


def run_case(case: dict) -> dict:
    """Simulate one golden case and fingerprint its records."""
    ir, cluster = build_cluster(case["backend"])
    platform = FLAT if case["platform"] == "flat" else PLATFORMS[case["platform"]]
    schedule = None if case["schedule"] == "baseline" else layerwise(ir)
    sim = SimVariant(CompiledCore(cluster, platform), schedule, make_config(case["config"]))
    iterations = [fingerprint(sim, sim.run_iteration(i)) for i in range(ITERATIONS)]
    return {"case": case, "iterations": iterations}


def _golden():
    if not os.path.exists(GOLDEN_PATH):  # regeneration bootstrap
        return {"iterations_per_case": ITERATIONS, "cases": []}
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


_GOLDEN = _golden()


@pytest.mark.parametrize(
    "case_rec", _GOLDEN["cases"], ids=[c["case"]["name"] for c in _GOLDEN["cases"]]
)
def test_engine_matches_golden_record(case_rec):
    """Makespans, out-of-order counts, per-op arrays and resource loads
    are bit-identical to the pre-refactor reference engine."""
    got = run_case(case_rec["case"])
    assert got["iterations"] == case_rec["iterations"]


def test_golden_matrix_is_current():
    """The committed golden file covers exactly the matrix defined here
    (a drifted matrix means cases silently stopped being checked)."""
    assert [c["case"] for c in _GOLDEN["cases"]] == case_matrix()
    assert _GOLDEN["iterations_per_case"] == ITERATIONS


# ----------------------------------------------------------------------
# batch API and core sharing
# ----------------------------------------------------------------------
def _records_equal(a, b) -> bool:
    return (
        a.makespan == b.makespan
        and a.out_of_order_handoffs == b.out_of_order_handoffs
        and np.array_equal(a.start, b.start)
        and np.array_equal(a.end, b.end)
        and np.array_equal(a.dedicated, b.dedicated)
    )


@given(
    st.integers(min_value=0, max_value=50),
    st.integers(min_value=1, max_value=5),
    st.sampled_from(["sender", "ready_queue", "dag", "none"]),
    st.sampled_from([0.0, 0.05]),
)
@settings(max_examples=examples(15), deadline=None)
def test_run_iterations_equals_k_single_runs(first, count, mode, sigma):
    """run_iterations(first, k) is bit-equal to k run_iteration calls."""
    ir, cluster = build_cluster("ps")
    schedule = None if mode == "none" else layerwise(ir)
    cfg = SimConfig(enforcement=mode, jitter_sigma=sigma, iterations=1, seed=9)
    sim = SimVariant(CompiledCore(cluster, FLAT), schedule, cfg)
    batch = sim.run_iterations(first, count)
    assert len(batch) == count
    for i, record in enumerate(batch):
        assert _records_equal(record, sim.run_iteration(first + i))


def test_variants_share_core_without_interference():
    """Two variants on one core reproduce two private compilations, in
    either execution order (no hidden state leaks through the core)."""
    ir, cluster = build_cluster("ps")
    core = CompiledCore(cluster, FLAT)
    sched = layerwise(ir)
    cfg = SimConfig(iterations=1, seed=4)
    a = SimVariant(core, None, cfg)
    b = SimVariant(core, sched, cfg.with_(enforcement="ready_queue"))
    # interleave executions of both variants against the shared core
    got = [a.run_iteration(0), b.run_iteration(0), a.run_iteration(1)]
    ref_a = SimVariant(CompiledCore(cluster, FLAT), None, cfg)
    ref_b = SimVariant(CompiledCore(cluster, FLAT), sched, cfg.with_(enforcement="ready_queue"))
    assert _records_equal(got[0], ref_a.run_iteration(0))
    assert _records_equal(got[1], ref_b.run_iteration(0))
    assert _records_equal(got[2], ref_a.run_iteration(1))


def test_cell_group_matches_separate_simulations():
    """The sweep's unit of work — shared IR + graph + core — is bit-equal
    to fully independent simulate_cluster calls per variant."""
    spec = ClusterSpec(2, 1, "training")
    cfg = SimConfig(iterations=2, seed=3)
    variants = [("baseline", cfg), ("tic", cfg), ("tic", cfg.with_(seed=8))]
    grouped = simulate_cell_group(
        tiny_model(), spec, variants, platform=FLAT
    )
    for (algorithm, config), got in zip(variants, grouped):
        solo = simulate_cluster(
            tiny_model(), spec, algorithm=algorithm, platform=FLAT, config=config
        )
        assert np.array_equal(got.iteration_times, solo.iteration_times)
        assert got.algorithm == solo.algorithm
