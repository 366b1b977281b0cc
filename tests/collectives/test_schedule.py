"""TIC/TAC on the collective backend: chunk ranks, gating, wizard memo."""

from __future__ import annotations

import pytest

from repro import backends
from repro.backends import prepare_comm_schedule
from repro.collectives import CollectiveSpec, build_collective_graph
from repro.core.schedules import Schedule, chunk_ranks
from repro.ps.cluster import ClusterSpec
from repro.sim import SimConfig, simulate_cluster
from repro.sim.engine import CompiledCore, SimVariant
from repro.timing import PLATFORMS

from ..conftest import tiny_model


def test_chunk_ranks_min_priority_and_tiebreak():
    schedule = Schedule("tic", priorities={"a": 3, "b": 0, "c": 1})
    params = {"chunk:0": ("a",), "chunk:1": ("c", "b"), "chunk:2": ("d",)}
    order = {"chunk:0": 0, "chunk:1": 1, "chunk:2": 2}
    ranks = chunk_ranks(schedule, params, order)
    # chunk:1 inherits b's priority 0; unprioritized chunk:2 ranks last
    assert ranks == {"chunk:1": 0, "chunk:0": 1, "chunk:2": 2}
    assert sorted(ranks.values()) == [0, 1, 2]


def test_chunk_ranks_tie_breaks_by_chunk_order():
    schedule = Schedule("tic", priorities={"a": 1, "b": 1})
    params = {"chunk:0": ("b",), "chunk:1": ("a",)}
    ranks = chunk_ranks(schedule, params, {"chunk:0": 0, "chunk:1": 1})
    assert ranks == {"chunk:0": 0, "chunk:1": 1}


@pytest.mark.parametrize("algorithm", ["tic", "tac", "tic_plus"])
def test_wizard_covers_all_parameters(algorithm):
    ir = tiny_model()
    spec = CollectiveSpec(n_workers=2)
    schedule = prepare_comm_schedule(ir, spec, algorithm, PLATFORMS["envG"])
    assert set(schedule.priorities) == {p.name for p in ir.params}


def test_engine_assigns_priorities_to_every_chunk_transfer():
    ir = tiny_model()
    spec = CollectiveSpec(n_workers=3, partition_bytes=2048)
    plat = PLATFORMS["envG"]
    cluster = build_collective_graph(ir, spec)
    schedule = prepare_comm_schedule(ir, spec, "tic", plat)
    sim = SimVariant(CompiledCore(cluster, plat), schedule, SimConfig())
    chunk_op_ids = {
        t.op_id
        for transfers in cluster.transfers_by_link.values()
        for t in transfers
    }
    assert chunk_op_ids  # the graph does have chunk transfers
    assert chunk_op_ids <= set(sim.prio)
    # ranks lowered from the schedule are dense over chunks
    assert set(sim.prio.values()) <= set(range(len(cluster.chunks)))


@pytest.mark.parametrize("topology", ["ring", "hierarchical"])
def test_tac_not_slower_than_baseline(topology):
    """The acceptance guarantee, at test scale: scheduled chunk order
    never loses to the unscheduled executor order."""
    ir = tiny_model(batch_size=4)
    spec = CollectiveSpec(n_workers=4, topology=topology)
    cfg = SimConfig(iterations=3, warmup=1)
    base = simulate_cluster(
        ir, spec, algorithm="baseline", platform="envG", config=cfg
    )
    tac = simulate_cluster(
        ir, spec, algorithm="tac", platform="envG", config=cfg
    )
    assert tac.mean_iteration_time <= base.mean_iteration_time * (1 + 1e-9)


def test_wizard_memo_shares_passes_across_worker_counts():
    """One reference partition serves every collective spec of a model —
    and PS specs share across worker counts and with the collective
    specs (the ROADMAP memo item)."""
    backends.WIZARD_MEMO.clear()
    ir = tiny_model()
    plat = PLATFORMS["envG"]
    s2 = backends.prepare_comm_schedule(
        ir, CollectiveSpec(n_workers=2), "tac", plat
    )
    s8 = backends.prepare_comm_schedule(
        ir, CollectiveSpec(n_workers=8, topology="hierarchical"), "tac", plat
    )
    assert s2 is s8  # memo hit: same reference projection
    assert len(backends.WIZARD_MEMO) == 1
    p2 = backends.prepare_comm_schedule(
        ir, ClusterSpec(n_workers=2, n_ps=2), "tac", plat
    )
    p16 = backends.prepare_comm_schedule(
        ir, ClusterSpec(n_workers=16, n_ps=2), "tac", plat
    )
    assert p2 is p16
    # ...but a different shard count is a different reference partition
    p_other = backends.prepare_comm_schedule(
        ir, ClusterSpec(n_workers=2, n_ps=1), "tac", plat
    )
    assert p_other is not p2
    # the PS training reference with one shard IS the collective one:
    # no backend name in the key, so both backends share the pass
    assert p_other is s2
    assert len(backends.WIZARD_MEMO) == 2
    backends.WIZARD_MEMO.clear()


def test_wizard_memo_distinguishes_structurally_different_models():
    """Two models with the same name, batch and parameter *census* but
    different structure must not share a memo entry (the key is the IR's
    structural fingerprint, not summary statistics)."""
    from repro.models.builder import NetBuilder

    def variant(bias_first: bool):
        b = NetBuilder("same_name", 8, input_hw=(16, 16))
        b.conv("conv0", 3, 8, bias=bias_first, bn=not bias_first)
        b.conv("conv1", 3, 8, bias=not bias_first, bn=bias_first)
        b.fc("logits", 10)
        b.softmax("predictions")
        return b.build()

    a, b = variant(True), variant(False)
    assert a.structural_fingerprint() != b.structural_fingerprint()
    backends.WIZARD_MEMO.clear()
    plat = PLATFORMS["envG"]
    spec = CollectiveSpec(n_workers=2)
    sched_a = backends.prepare_comm_schedule(a, spec, "tic", plat)
    sched_b = backends.prepare_comm_schedule(b, spec, "tic", plat)
    assert len(backends.WIZARD_MEMO) == 2
    assert set(sched_a.priorities) != set(sched_b.priorities)
    backends.WIZARD_MEMO.clear()


def test_backend_dispatch_rejects_unknown_spec_types():
    with pytest.raises(TypeError, match="no communication backend"):
        backends.backend_for_spec(object())


def test_third_party_registration_does_not_suppress_builtins():
    """register_backend as the first registry touch must still load the
    built-in ps/allreduce backends."""

    class FakeSpec:
        pass

    fake = backends.CommBackend(
        name="fake",
        spec_type=FakeSpec,
        build_graph=lambda ir, spec: None,
        prepare_schedule=lambda *a, **k: None,
    )
    backends.register_backend(fake)
    try:
        registry = backends.backends()
        assert {"ps", "allreduce", "fake"} <= set(registry)
        assert backends.backend_for_spec(FakeSpec()).name == "fake"
    finally:
        backends._BACKENDS.pop("fake", None)
        backends._BY_SPEC_TYPE.pop(FakeSpec, None)
