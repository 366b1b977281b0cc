"""Each distinct ``(config, lowering)`` of a group is simulated once.

:func:`repro.sim.simulate_cell_group` hands a later variant whose
:meth:`~repro.sim.SimVariant.lowering_digest` and config equal an
earlier one's a relabelled copy of the earlier result. These tests pin
that the copy is exactly what a standalone run produces, that the digest
covers every schedule-derived field of a variant, and that nothing is
shared across configs or distinct lowerings.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.scenarios import make_spec
from repro.backends import MEMO_COUNTERS, build_comm_graph
from repro.models import build_model
from repro.ps.cluster import ClusterSpec
from repro.sim import (
    CompiledCore,
    SimConfig,
    SimVariant,
    prepare_schedule,
    simulate_cell_group,
    simulate_cluster,
    summarize_iteration,
)
from repro.sweep.serialize import result_to_dict
from repro.timing import PLATFORMS

CFG = SimConfig(iterations=2, warmup=1)
#: a quick-grid ring all-reduce group: TIC and TAC fuse into equal chunk ranks.
RING = ("AlexNet v2", make_spec(
    "allreduce", n_workers=2, topology="ring", partition_bytes=4 * 2**20
))
#: fig13 PS groups (envC, 4 workers, 1 PS): VGG-16's TIC and TAC lower
#: equally, Inception v2's do not.
PS_EQUAL = ("VGG-16", ClusterSpec(4, 1, "inference"), "envC")
PS_DISTINCT = ("Inception v2", ClusterSpec(4, 1, "inference"), "envC")


def _hits() -> int:
    return MEMO_COUNTERS["variant_memo_hits"]


def _group(model, spec, variants, platform="envG"):
    """``simulate_cell_group`` results plus the reuses it counted."""
    before = _hits()
    results = simulate_cell_group(model, spec, variants, platform=platform)
    return results, _hits() - before


def _variants(model, spec, platform, pairs):
    """Fresh, never-run variants of one core, one per ``(algorithm, config)``."""
    plat = PLATFORMS[platform]
    ir = build_model(model)
    core = CompiledCore(build_comm_graph(ir, spec), plat)
    return [
        SimVariant(
            core,
            None if alg == "baseline" else prepare_schedule(ir, spec, alg, plat),
            cfg,
        )
        for alg, cfg in pairs
    ]


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
            and a.dtype == b.dtype and np.array_equal(a, b)
        )
    if isinstance(a, (list, tuple)):
        return (
            type(a) is type(b) and len(a) == len(b)
            and all(_same(x, y) for x, y in zip(a, b))
        )
    if isinstance(a, dict):
        return (
            type(b) is dict and a.keys() == b.keys()
            and all(_same(a[k], b[k]) for k in a)
        )
    return a is b or a == b


# ----------------------------------------------------------------------
# (a) a reused result is the standalone result
# ----------------------------------------------------------------------
def test_reused_tac_equals_standalone_run():
    model, spec = RING
    (base, tic, tac), hits = _group(
        model, spec, [("baseline", CFG), ("tic", CFG), ("tac", CFG)]
    )
    assert hits == 1
    standalone = simulate_cluster(model, spec, algorithm="tac", config=CFG)
    assert tac.algorithm == "tac" and tic.algorithm == "tic"
    assert tac == standalone
    assert result_to_dict(tac) == result_to_dict(standalone)
    assert tac.iterations is not tic.iterations
    # the recorded indices follow the warm-up ones, which are not kept
    (fresh,) = _variants(model, spec, "envG", [("tac", CFG)])
    assert tac.iterations == [
        summarize_iteration(fresh, record)
        for record in fresh.run_iterations(CFG.warmup, CFG.iterations)
    ]
    # the baseline lowers differently and was simulated on its own
    assert result_to_dict(base) != result_to_dict(tic)


def test_reuse_is_exact_under_trace():
    model, spec = RING
    cfg = CFG.with_(trace=True)
    (tic, tac), hits = _group(model, spec, [("tic", cfg), ("tac", cfg)])
    assert hits == 1
    standalone = simulate_cluster(model, spec, algorithm="tac", config=cfg)
    assert result_to_dict(tac) == result_to_dict(standalone)


# ----------------------------------------------------------------------
# (b) the digest covers every schedule-derived field
# ----------------------------------------------------------------------
@pytest.mark.parametrize("case", [
    ("ring", RING + ("envG",), (("tic", CFG), ("tac", CFG))),
    ("ps", PS_EQUAL, (("tic", CFG), ("tac", CFG))),
    ("none", PS_DISTINCT, (
        ("baseline", CFG.with_(enforcement="none")),
        ("tac", CFG.with_(enforcement="none")),
    )),
], ids=lambda c: c[0])
def test_equal_digest_means_equal_variant(case):
    _name, (model, spec, platform), pairs = case
    a, b = _variants(model, spec, platform, pairs)
    assert a.lowering_digest() == b.lowering_digest()
    assert a.schedule is not b.schedule
    fields_a, fields_b = vars(a), vars(b)
    assert fields_a.keys() == fields_b.keys()
    differ = [
        name for name in fields_a
        if name != "schedule" and not _same(fields_a[name], fields_b[name])
    ]
    assert differ == [], (
        f"variants with equal lowering digests differ in {differ}: a "
        f"schedule-derived field is missing from SimVariant.lowering_digest"
    )


# ----------------------------------------------------------------------
# (c) nothing is reused across distinct lowerings or configs
# ----------------------------------------------------------------------
def test_no_reuse_when_ps_tic_and_tac_lower_differently():
    model, spec, platform = PS_DISTINCT
    (tic, tac), hits = _group(
        model, spec, [("tic", CFG), ("tac", CFG)], platform=platform
    )
    assert hits == 0
    standalone = simulate_cluster(
        model, spec, algorithm="tac", config=CFG, platform=platform
    )
    assert result_to_dict(tac) == result_to_dict(standalone)


def test_ps_group_with_equal_lowering_reuses():
    model, spec, platform = PS_EQUAL
    (_tic, tac), hits = _group(
        model, spec, [("tic", CFG), ("tac", CFG)], platform=platform
    )
    assert hits == 1
    standalone = simulate_cluster(
        model, spec, algorithm="tac", config=CFG, platform=platform
    )
    assert tac == standalone


@pytest.mark.parametrize("change", [
    {"seed": 1}, {"trace": True},
], ids=lambda c: next(iter(c)))
def test_no_reuse_across_configs(change):
    model, spec = RING
    other = CFG.with_(**change)
    (tic, tac), hits = _group(model, spec, [("tic", CFG), ("tac", other)])
    assert hits == 0
    assert tac.iterations is not tic.iterations
    standalone = simulate_cluster(model, spec, algorithm="tac", config=other)
    assert result_to_dict(tac) == result_to_dict(standalone)


# ----------------------------------------------------------------------
# (d) the counter
# ----------------------------------------------------------------------
def test_variant_memo_hits_counts_each_reuse():
    model, spec = RING
    _, hits = _group(model, spec, [
        ("baseline", CFG), ("tic", CFG), ("tac", CFG),
        ("baseline", CFG), ("tic", CFG.with_(seed=3)), ("tac", CFG.with_(seed=3)),
    ])
    # tac after tic, the repeated baseline, and tac after tic at seed 3
    assert hits == 3


def test_single_variant_group_computes_no_key(monkeypatch):
    calls = []
    original = SimVariant.lowering_digest

    def counting(self):
        calls.append(self.schedule.algorithm)
        return original(self)

    monkeypatch.setattr(SimVariant, "lowering_digest", counting)
    model, spec = RING
    _, hits = _group(model, spec, [("tac", CFG)])
    assert hits == 0 and calls == []
    _, hits = _group(model, spec, [("tic", CFG), ("tac", CFG)])
    assert hits == 1 and calls == ["tic", "tac"]
