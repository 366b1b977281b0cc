"""Kernel-seam parity: the array kernel is bit-exact with the python loop.

Three layers of defence:

* the RNG re-implementation (buffered 32-bit Lemire + 53-bit doubles over
  a raw PCG64 stream), in both the kernel's and the python loop's copy,
  is pinned against ``numpy.random.Generator`` draw by draw — if a numpy
  upgrade ever changes the bounded-integer algorithm, these tests fail
  before any golden digest does;
* the committed golden matrix (``golden_engine.json``) is replayed under
  every available array kernel (``portable`` everywhere; ``numba`` where
  installed — they share one code path, compiled or not);
* hypothesis drives random model IRs / configs through both kernels and
  requires identical records.

Also covers kernel *selection*: auto-detection, the
``REPRO_ENGINE_KERNEL`` env override, loud failure for explicit
``numba`` requests without numba, and cache-key invariance (kernels are
interchangeable, so sweep cache entries are shared).
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectives import CollectiveSpec
from repro.backends import build_comm_graph
from repro.sim import (
    CompiledCore,
    SimConfig,
    SimVariant,
    engine,
    kernel,
)
from repro.timing import get_platform

from ..strategies import model_irs
from .test_engine_golden import (
    _GOLDEN,
    FLAT,
    ITERATIONS,
    build_cluster,
    layerwise,
    make_config,
)

#: every array-kernel flavour runnable on this host. 'portable' selects
#: the same implementation as 'numba' (jitted where numba is installed,
#: uncompiled elsewhere), so covering 'portable' everywhere keeps the
#: numba algorithm pinned even on hosts without numba.
ARRAY_KERNELS = ["portable"] + (["numba"] if kernel.HAVE_NUMBA else [])


# ----------------------------------------------------------------------
# RNG emulation pinned against numpy.random.Generator
# ----------------------------------------------------------------------
class _KernelRNG:
    """Drive the kernel's RNG functions the way the event loop does."""

    def __init__(self, raw: np.ndarray) -> None:
        self.raw = raw
        self.st = np.zeros(8, np.int64)
        self.rsi = np.zeros(2, np.int64)
        self.rsu = np.zeros(1, np.uint64)

    def random(self) -> float:
        return kernel._rng_random(self.raw, self.rsi, self.st)

    def integers(self, total: int) -> int:
        return int(
            kernel._rng_integers(self.raw, self.rsi, self.rsu, self.st, total)
        )


@pytest.mark.parametrize("seed", [0, 7, (3, 41)])
def test_rng_emulation_matches_generator(seed):
    """Interleaved integers()/random() draws equal numpy's bit for bit."""
    ref = np.random.default_rng(np.random.SeedSequence(seed))
    bg = np.random.PCG64(np.random.SeedSequence(seed))
    ours = _KernelRNG(bg.random_raw(40000))
    mix = np.random.default_rng(123)  # drives the call pattern only
    for _ in range(5000):
        if mix.random() < 0.4:
            assert ours.random() == ref.random()
        else:
            total = int(mix.integers(2, 5000))
            assert ours.integers(total) == int(ref.integers(total))
    assert ours.st[4] == 0  # never exhausted


def test_rng_emulation_continues_after_lognormal():
    """The jitter path draws lognormal factors from the iteration's
    generator *before* the event loop; the raw stream picked up after
    that must continue numpy's stream exactly."""
    ref = np.random.default_rng(np.random.SeedSequence((2, 9)))
    mine = np.random.default_rng(np.random.SeedSequence((2, 9)))
    f_ref = ref.lognormal(0.0, 0.05, 64)
    f_mine = mine.lognormal(0.0, 0.05, 64)
    assert np.array_equal(f_ref, f_mine)
    ours = _KernelRNG(mine.bit_generator.random_raw(512))
    for total in (5, 17, 2, 999, 3, 3, 256):
        assert ours.integers(total) == int(ref.integers(total))
    for _ in range(5):
        assert ours.random() == ref.random()


def test_rng_exhaustion_sets_status():
    ours = _KernelRNG(np.zeros(1, np.uint64))
    ours.random()
    ours.random()  # buffer is dry now
    assert ours.st[4] == 1  # _RAW_EXHAUSTED


# ----------------------------------------------------------------------
# the python loop's raw-stream consumers, pinned the same way
# ----------------------------------------------------------------------
@pytest.mark.parametrize("block", [1, 3, 256])
@pytest.mark.parametrize("seed", [0, 7, (3, 41)])
def test_raw_stream_matches_generator(seed, block, monkeypatch):
    """The python loop's ``random``/``integers`` closures equal numpy's
    draws bit for bit, interleaved, whatever the refill block size."""
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
    """The stream picked up after the jitter lognormal draws continues
    numpy's stream exactly."""
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
# golden matrix under the array kernels
# ----------------------------------------------------------------------
def run_golden_case(case: dict, kern: str) -> dict:
    ir, cluster = build_cluster(case["backend"])
    platform = FLAT if case["platform"] == "flat" else get_platform(case["platform"])
    schedule = None if case["schedule"] == "baseline" else layerwise(ir)
    cfg = make_config(case["config"]).with_(kernel=kern)
    sim = SimVariant(CompiledCore(cluster, platform), schedule, cfg)
    iterations = []
    for i in range(ITERATIONS):
        record = sim.run_iteration(i)
        digest = hashlib.sha256()
        digest.update(np.ascontiguousarray(record.start).tobytes())
        digest.update(np.ascontiguousarray(record.end).tobytes())
        digest.update(np.ascontiguousarray(record.dedicated).tobytes())
        loads = sim.resource_loads(record)
        iterations.append(
            {
                "makespan": record.makespan,
                "out_of_order": record.out_of_order_handoffs,
                "arrays_sha256": digest.hexdigest(),
                "loads_sha256": hashlib.sha256(
                    json.dumps(loads, sort_keys=True).encode()
                ).hexdigest(),
            }
        )
    return iterations


@pytest.mark.parametrize("kern", ARRAY_KERNELS)
@pytest.mark.parametrize(
    "case_rec", _GOLDEN["cases"], ids=[c["case"]["name"] for c in _GOLDEN["cases"]]
)
def test_array_kernel_matches_golden_record(case_rec, kern):
    assert run_golden_case(case_rec["case"], kern) == case_rec["iterations"]


def test_python_loop_block_size_is_invisible(monkeypatch):
    """A one-word refill block gives the python loop the same records as
    the default block, on a golden case that draws both consumers (random
    compute picks, gRPC reorder noise) after its jitter draws."""
    rec = next(
        c for c in _GOLDEN["cases"] if c["case"]["name"] == "ps-sender-j0.05"
    )
    default = run_golden_case(rec["case"], "python")
    monkeypatch.setattr(engine, "_RAW_BLOCK", 1)
    assert run_golden_case(rec["case"], "python") == default == rec["iterations"]


# ----------------------------------------------------------------------
# hypothesis: python vs array kernel on random IRs / configs
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
    model_irs(max_convs=3),
    st.sampled_from(["sender", "ready_queue", "dag", "none"]),
    st.sampled_from([0.0, 0.05]),
    st.integers(min_value=0, max_value=99),
)
@settings(max_examples=12, deadline=None)
def test_kernels_agree_on_random_collective_irs(ir, mode, sigma, seed):
    """python and array kernels produce identical records on random
    models run through the collective backend (chunk queues, priority
    picks and ring channels all exercised)."""
    spec = CollectiveSpec(n_workers=3, partition_bytes=65536)
    cluster = build_comm_graph(ir, spec)
    core = CompiledCore(cluster, FLAT)
    schedule = None if mode == "none" else layerwise(ir)
    cfg = SimConfig(enforcement=mode, jitter_sigma=sigma, iterations=1, seed=seed)
    py = SimVariant(core, schedule, cfg.with_(kernel="python"))
    arr = SimVariant(core, schedule, cfg.with_(kernel="portable"))
    for i in (0, 1):
        assert _records_equal(py.run_iteration(i), arr.run_iteration(i))


@given(
    st.integers(min_value=0, max_value=50),
    st.integers(min_value=1, max_value=4),
    st.sampled_from(["sender", "ready_queue", "dag", "none"]),
)
@settings(max_examples=10, deadline=None)
def test_kernel_batch_equals_python_batch(first, count, mode):
    """run_iterations through the array kernel == the python loop,
    including the slabbed jitter path."""
    ir, cluster = build_cluster("ps")
    core = CompiledCore(cluster, FLAT)
    schedule = None if mode == "none" else layerwise(ir)
    cfg = SimConfig(enforcement=mode, jitter_sigma=0.05, iterations=1, seed=11)
    py = SimVariant(core, schedule, cfg.with_(kernel="python"))
    arr = SimVariant(core, schedule, cfg.with_(kernel="portable"))
    for a, b in zip(
        py.run_iterations(first, count), arr.run_iterations(first, count)
    ):
        assert _records_equal(a, b)


def test_raw_buffer_exhaustion_retry_is_bit_exact(monkeypatch):
    """A deliberately tiny raw budget forces the exhaust-and-replay path;
    the retried iteration must still match the python loop exactly."""
    ir, cluster = build_cluster("ps")
    core = CompiledCore(cluster, FLAT)
    schedule = layerwise(ir)
    cfg = SimConfig(enforcement="sender", iterations=1, seed=5)
    py = SimVariant(core, schedule, cfg.with_(kernel="python")).run_iteration(0)
    arr_variant = SimVariant(core, schedule, cfg.with_(kernel="portable"))
    monkeypatch.setattr(kernel.core_tables(core), "raw_init", 8)
    assert _records_equal(py, arr_variant.run_iteration(0))


# ----------------------------------------------------------------------
# kernel selection + config surface
# ----------------------------------------------------------------------
def test_auto_resolution(monkeypatch):
    monkeypatch.delenv(kernel.ENV_VAR, raising=False)
    assert kernel.resolve("auto") == ("numba" if kernel.HAVE_NUMBA else "python")
    assert kernel.resolve("python") == "python"
    assert kernel.resolve("portable") == "portable"


def test_env_override(monkeypatch):
    monkeypatch.setenv(kernel.ENV_VAR, "portable")
    assert kernel.resolve("auto") == "portable"
    # explicit config beats the env var
    assert kernel.resolve("python") == "python"
    monkeypatch.setenv(kernel.ENV_VAR, "bogus")
    with pytest.raises(ValueError, match="REPRO_ENGINE_KERNEL"):
        kernel.resolve("auto")


@pytest.mark.skipif(kernel.HAVE_NUMBA, reason="numba is installed here")
def test_explicit_numba_fails_loudly_when_missing(monkeypatch):
    """No silent fallback: CI's numba leg must die, not regress 2x."""
    with pytest.raises(RuntimeError, match="numba"):
        kernel.resolve("numba")
    monkeypatch.setenv(kernel.ENV_VAR, "numba")
    with pytest.raises(RuntimeError, match="numba"):
        kernel.resolve("auto")


def test_config_rejects_unknown_kernel():
    with pytest.raises(ValueError, match="kernel"):
        SimConfig(kernel="cython")


def test_kernel_choice_shares_cache_entries():
    """Bit-exact kernels are interchangeable: the sweep cache key must
    not depend on the kernel choice."""
    from repro.ps import ClusterSpec
    from repro.sweep import SimCell

    spec = ClusterSpec(2, 1, "training")
    keys = {
        SimCell(
            model="AlexNet v2", spec=spec,
            config=SimConfig(iterations=1, kernel=k),
        ).cache_key_material()
        for k in ("auto", "python", "portable")
    }
    assert len(keys) == 1


def test_compiled_simulation_is_gone():
    """The deprecated one-shot facade was removed; CompiledCore+SimVariant
    is the only compile path."""
    import repro.sim as sim_module

    assert not hasattr(sim_module, "CompiledSimulation")


def test_variant_reports_resolved_kernel(monkeypatch):
    monkeypatch.delenv(kernel.ENV_VAR, raising=False)
    ir, cluster = build_cluster("ps")
    core = CompiledCore(cluster, FLAT)
    v = SimVariant(core, None, SimConfig(iterations=1, kernel="portable"))
    assert v.kernel == "portable"
    v2 = SimVariant(core, None, SimConfig(iterations=1, kernel="python"))
    assert v2.kernel == "python" and v2._kernel_loop is None
