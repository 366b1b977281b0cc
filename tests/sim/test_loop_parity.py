"""Event-loop parity: the python loop against numpy and against itself.

The python loop in :mod:`repro.sim.engine` is the simulator's only event
loop. Its parity pins:

* the RNG emulation (buffered 32-bit Lemire + 53-bit doubles over a raw
  PCG64 stream, :func:`repro.sim.engine._raw_stream`) is pinned against
  ``numpy.random.Generator`` draw by draw — if a numpy upgrade ever
  changes the bounded-integer algorithm, these tests fail before any
  golden digest does;
* the raw-stream refill block size never changes a record;
* the loop's drivers agree: an iteration run alone, inside a slabbed
  ``run_iterations`` batch, or inside a batch split over several slabs
  gives the same record, on the PS golden cluster, on random collective
  IRs and on a co-scheduled job mix (``tests/sim/test_jobmix.py``);
* the chunk priority pick (:func:`repro.sim.engine._priority_pick`)
  takes the index and makes the draws of the candidate-list rule it
  replaced, kept here as the reference;
* a core's successor tables stay out of the cyclic GC;
* the retired kernel choice stays retired: no config field, no variant
  attribute, and sweep cache keys equal to the ones written while it
  existed.
"""

from __future__ import annotations

import gc
import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.backends import build_comm_graph
from repro.collectives import CollectiveSpec
from repro.sim import (
    CompiledCore,
    JobMixSpec,
    JobSpec,
    SimConfig,
    SimVariant,
    build_jobmix_graph,
    engine,
)

from ..conftest import examples
from ..strategies import model_irs
from .test_engine_golden import (
    _GOLDEN,
    FLAT,
    build_cluster,
    layerwise,
    run_case,
)


def _records_equal(a, b) -> bool:
    return (
        a.makespan == b.makespan
        and a.out_of_order_handoffs == b.out_of_order_handoffs
        and np.array_equal(a.start, b.start)
        and np.array_equal(a.end, b.end)
        and np.array_equal(a.dedicated, b.dedicated)
    )


# ----------------------------------------------------------------------
# RNG emulation pinned against numpy.random.Generator
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 7, (3, 41)])
def test_rng_emulation_matches_generator(seed):
    """``integers`` equals numpy at the edges of numpy's 32-bit Lemire
    path — tiny, power-of-two, just-over-half and maximal bounds, where
    rejection ranges from never to about every other draw."""
    totals = [2, 3, 2**16, 2**16 + 1, 2**31, 2**31 + 1, 2**32 - 1]
    ref = np.random.default_rng(np.random.SeedSequence(seed))
    random, integers = engine._raw_stream(
        np.random.PCG64(np.random.SeedSequence(seed))
    )
    for _ in range(300):
        for total in totals:
            assert integers(total) == int(ref.integers(total))
        assert random() == ref.random()


def test_rng_emulation_continues_after_lognormal(monkeypatch):
    """As :func:`test_raw_stream_continues_after_lognormal`, but with a
    one-word refill block: every draw after the jitter factors refills,
    and each refill still continues numpy's stream."""
    monkeypatch.setattr(engine, "_RAW_BLOCK", 1)
    ref = np.random.default_rng(np.random.SeedSequence((2, 9)))
    mine = np.random.default_rng(np.random.SeedSequence((2, 9)))
    assert np.array_equal(
        ref.lognormal(0.0, 0.05, 64), mine.lognormal(0.0, 0.05, 64)
    )
    random, integers = engine._raw_stream(mine.bit_generator)
    for total in (5, 17, 2, 999, 3, 3, 256):
        assert integers(total) == int(ref.integers(total))
        assert random() == ref.random()


@pytest.mark.parametrize("block", [1, 3, 256])
@pytest.mark.parametrize("seed", [0, 7, (3, 41)])
def test_raw_stream_matches_generator(seed, block, monkeypatch):
    """The loop's ``random``/``integers`` closures equal numpy's draws
    bit for bit, interleaved, whatever the refill block size."""
    monkeypatch.setattr(engine, "_RAW_BLOCK", block)
    ref = np.random.default_rng(np.random.SeedSequence(seed))
    random, integers = engine._raw_stream(
        np.random.PCG64(np.random.SeedSequence(seed))
    )
    mix = np.random.default_rng(123)  # drives the call pattern only
    for _ in range(5000):
        if mix.random() < 0.4:
            assert random() == ref.random()
        else:
            total = int(mix.integers(2, 5000))
            assert integers(total) == int(ref.integers(total))


def test_raw_stream_continues_after_lognormal():
    """The jitter path draws lognormal factors from the iteration's
    generator before the event loop; the raw stream picked up after
    that continues numpy's stream exactly."""
    ref = np.random.default_rng(np.random.SeedSequence((2, 9)))
    mine = np.random.default_rng(np.random.SeedSequence((2, 9)))
    assert np.array_equal(
        ref.lognormal(0.0, 0.05, 64), mine.lognormal(0.0, 0.05, 64)
    )
    random, integers = engine._raw_stream(mine.bit_generator)
    for total in (5, 17, 2, 999, 3, 3, 256):
        assert integers(total) == int(ref.integers(total))
    for _ in range(5):
        assert random() == ref.random()


def test_raw_stream_refill_mid_rejection(monkeypatch):
    """A rejected draw whose redraw needs a fresh block: the refill
    continues the stream, so the accepted value is numpy's."""
    # total = 2**31 + 1 rejects low32(m) < 2**31 - 1: about half the
    # draws. Find a seed whose first uint32 is rejected and whose high
    # half (the redraw) is rejected too, so acceptance needs word two.
    total = 2**31 + 1
    threshold = (2**32 - total) % total
    for seed in range(1000):
        w0 = int(np.random.PCG64(seed).random_raw())
        lo, hi = w0 & 0xFFFFFFFF, w0 >> 32
        if (lo * total) & 0xFFFFFFFF < threshold and (
            hi * total
        ) & 0xFFFFFFFF < threshold:
            break
    else:  # pragma: no cover - vanishingly unlikely
        pytest.fail("no seed rejects both halves of its first word")
    monkeypatch.setattr(engine, "_RAW_BLOCK", 1)
    ref = np.random.default_rng(seed)
    random, integers = engine._raw_stream(np.random.PCG64(seed))
    for _ in range(50):
        assert integers(total) == int(ref.integers(total))
        assert random() == ref.random()


# ----------------------------------------------------------------------
# refill block size: invisible in records
# ----------------------------------------------------------------------
def test_python_loop_block_size_is_invisible(monkeypatch):
    """A one-word refill block gives the loop the same records as the
    default block, on a golden case that draws both consumers (random
    compute picks, gRPC reorder noise) after its jitter draws."""
    rec = next(
        c for c in _GOLDEN["cases"] if c["case"]["name"] == "ps-sender-j0.05"
    )
    default = run_case(rec["case"])["iterations"]
    monkeypatch.setattr(engine, "_RAW_BLOCK", 1)
    assert run_case(rec["case"])["iterations"] == default == rec["iterations"]


def test_raw_buffer_exhaustion_retry_is_bit_exact(monkeypatch):
    """With a one-word block the raw buffer runs dry on every draw of a
    sender-enforced, gRPC-reordering PS run; the refills continue the
    stream, so every record of a batch matches the default block's."""
    ir, cluster = build_cluster("ps")
    core = CompiledCore(cluster, FLAT)
    cfg = SimConfig(enforcement="sender", iterations=1, seed=5)
    default = SimVariant(core, layerwise(ir), cfg).run_iterations(0, 3)
    monkeypatch.setattr(engine, "_RAW_BLOCK", 1)
    starved = SimVariant(core, layerwise(ir), cfg).run_iterations(0, 3)
    for a, b in zip(default, starved):
        assert _records_equal(a, b)


# ----------------------------------------------------------------------
# the chunk priority pick against the candidate-list rule
# ----------------------------------------------------------------------
def _reference_pick(prios, integers):
    """The pick as the loop first wrote it: the lowest known priority
    and every unprioritized (-1) entry are candidates, all entries when
    none is known, and several candidates draw one in queue order."""
    known = [p for p in prios if p >= 0]
    if known:
        lowest = min(known)
        cands = [i for i, p in enumerate(prios) if p < 0 or p == lowest]
    else:
        cands = list(range(len(prios)))
    if len(cands) > 1:
        return cands[integers(len(cands))]
    return cands[0]


def _counting(integers, bounds):
    def draw(total):
        bounds.append(total)
        return integers(total)

    return draw


@given(
    st.lists(
        st.lists(st.integers(min_value=-1, max_value=4), min_size=1, max_size=12),
        min_size=1,
        max_size=6,
    ),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@example([[3]], 0)  # one queued transfer
@example([[5, 2, 7]], 0)  # a unique known minimum
@example([[2, 1, 1, 3, 1]], 1)  # a tie at the minimum
@example([[-1, -1, -1]], 2)  # nothing prioritized
@example([[-1]], 3)  # one unprioritized transfer
@example([[0, -1, 0, 4]], 4)  # unprioritized entries join the tie
@example([[-1, 6]], 5)  # one known priority beside an unknown one
@settings(max_examples=examples(60), deadline=None)
def test_priority_pick_matches_candidate_rule(queues, seed):
    """Over a sequence of queues drawing from one stream, the pick takes
    the reference's index every time, with the same bounded draws, so
    the stream after each pick is the reference's too."""
    ref_bounds, new_bounds = [], []
    _, ref_integers = engine._raw_stream(np.random.PCG64(seed))
    _, new_integers = engine._raw_stream(np.random.PCG64(seed))
    ref_draw = _counting(ref_integers, ref_bounds)
    new_draw = _counting(new_integers, new_bounds)
    for prios in queues:
        assert engine._priority_pick(list(prios), new_draw) == _reference_pick(
            prios, ref_draw
        )
        assert new_bounds == ref_bounds


# ----------------------------------------------------------------------
# successor tables stay out of the cyclic GC
# ----------------------------------------------------------------------
def test_successor_tables_are_untracked_by_gc():
    """Successor tables are tuples of ints, which one full collection
    untracks; a list would be walked by every later collection for as
    long as its core lives. Checked on a PS, a ring and a job-mix core."""
    mix = JobMixSpec(
        jobs=(
            JobSpec("AlexNet v2", n_workers=2, n_ps=1),
            JobSpec("AlexNet v2", n_workers=2, n_ps=1, arrival=1.0),
        ),
        placement="packed",
        n_hosts=3,
    )
    cores = [CompiledCore(build_cluster(b)[1], FLAT) for b in ("ps", "ring")]
    cores.append(CompiledCore(build_jobmix_graph(None, mix), FLAT))
    gc.collect()
    for core in cores:
        assert core.succ_of
        assert not any(map(gc.is_tracked, core.succ_of))


# ----------------------------------------------------------------------
# the loop's drivers agree
# ----------------------------------------------------------------------
@given(
    model_irs(max_convs=3),
    st.sampled_from(["sender", "ready_queue", "dag", "none"]),
    st.sampled_from([0.0, 0.05]),
    st.integers(min_value=0, max_value=99),
)
@settings(max_examples=examples(12), deadline=None)
def test_kernels_agree_on_random_collective_irs(ir, mode, sigma, seed):
    """On random models run through the collective backend (chunk
    queues, priority picks and ring channels all exercised), a batch on
    one variant equals single iterations on a sibling sharing its core."""
    spec = CollectiveSpec(n_workers=3, partition_bytes=65536)
    core = CompiledCore(build_comm_graph(ir, spec), FLAT)
    schedule = None if mode == "none" else layerwise(ir)
    cfg = SimConfig(enforcement=mode, jitter_sigma=sigma, iterations=1, seed=seed)
    batch = SimVariant(core, schedule, cfg).run_iterations(0, 2)
    alone = SimVariant(core, schedule, cfg)
    for i, record in enumerate(batch):
        assert _records_equal(record, alone.run_iteration(i))


@given(
    st.integers(min_value=0, max_value=50),
    st.integers(min_value=1, max_value=5),
    st.sampled_from(["sender", "ready_queue", "dag", "none"]),
)
@settings(max_examples=examples(10), deadline=None)
def test_kernel_batch_equals_python_batch(first, count, mode):
    """A batch split over two-iteration slabs equals the same batch in
    one slab, including the slabbed jitter path."""
    ir, cluster = build_cluster("ps")
    core = CompiledCore(cluster, FLAT)
    schedule = None if mode == "none" else layerwise(ir)
    cfg = SimConfig(enforcement=mode, jitter_sigma=0.05, iterations=1, seed=11)
    whole = SimVariant(core, schedule, cfg)
    sliced = SimVariant(core, schedule, cfg)
    sliced._SLAB = 2
    for a, b in zip(
        whole.run_iterations(first, count), sliced.run_iterations(first, count)
    ):
        assert _records_equal(a, b)


# ----------------------------------------------------------------------
# the retired kernel choice stays retired
# ----------------------------------------------------------------------
def test_config_rejects_unknown_kernel():
    """``SimConfig`` has no kernel field left to set."""
    with pytest.raises(TypeError, match="kernel"):
        SimConfig(kernel="cython")


def test_kernel_choice_shares_cache_entries():
    """A cell's key payload is pinned: the dropped kernel choice never
    entered it, and the payload changes only when a ``SimConfig`` field
    is added or removed (the pin is the earlier payload with the removed
    queue, fabric and op-time fields popped from ``cell.config``)."""
    from repro.ps import ClusterSpec
    from repro.sweep import SimCell
    from repro.sweep.spec import canonical_json

    cell = SimCell(
        model="AlexNet v2",
        spec=ClusterSpec(2, 1, "training"),
        config=SimConfig(iterations=1),
    )
    payload = canonical_json(cell.key_payload()).encode()
    assert hashlib.sha256(payload).hexdigest() == (
        "a03e4bf2fbb7e0935c87d743f530e91e43f6a68b3c99921f9e2d7b291973e259"
    )


def test_compiled_simulation_is_gone():
    """The deprecated one-shot facade was removed; CompiledCore+SimVariant
    is the only compile path."""
    import repro.sim as sim_module

    assert not hasattr(sim_module, "CompiledSimulation")


def test_variant_reports_resolved_kernel():
    """A variant reports no kernel: the python loop is the only one."""
    ir, cluster = build_cluster("ps")
    v = SimVariant(CompiledCore(cluster, FLAT), None, SimConfig(iterations=1))
    assert not hasattr(v, "kernel")
    assert not hasattr(v, "_kernel_loop")
