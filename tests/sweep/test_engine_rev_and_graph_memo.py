"""Cache-poisoning guards: engine revision in cell keys, graph memo."""

from __future__ import annotations

import json

from repro import backends
from repro.ps import ClusterSpec
from repro.sim import ENGINE_REV, SimConfig
from repro.sweep import SimCell

from ..conftest import tiny_model


def test_sim_cell_key_pins_engine_revision():
    """A cell cached under one compiled-array layout must never be served
    to an engine with another: the revision is part of the key payload."""
    cell = SimCell(model="tinynet", spec=ClusterSpec(2, 1, "training"),
                   config=SimConfig(iterations=1))
    payload = cell.key_payload()
    assert payload["engine_rev"] == ENGINE_REV
    # and it survives the canonical-JSON round trip into key material
    assert f'"engine_rev":{ENGINE_REV}' in cell.cache_key_material().replace(" ", "")


def test_code_fingerprint_folds_engine_revision(monkeypatch):
    from repro.sweep import fingerprint as fp

    base = fp.code_fingerprint()
    try:
        fp.code_fingerprint.cache_clear()
        monkeypatch.setattr("repro.sim.engine.ENGINE_REV", ENGINE_REV + 1)
        bumped = fp.code_fingerprint()
    finally:
        monkeypatch.undo()
        fp.code_fingerprint.cache_clear()
    assert bumped != base
    assert fp.code_fingerprint() == base  # restored after the monkeypatch


def test_cache_key_material_is_json(tmp_path):
    cell = SimCell(model="tinynet", spec=ClusterSpec(1, 1, "inference"))
    material = json.loads(cell.cache_key_material())
    assert material["payload"]["kind"] == "sim_cell"


# ----------------------------------------------------------------------
# graph memo
# ----------------------------------------------------------------------
def test_build_comm_graph_memoizes_plain_calls():
    backends.GRAPH_MEMO.clear()
    ir = tiny_model()
    spec = ClusterSpec(2, 1, "training")
    a = backends.build_comm_graph(ir, spec)
    b = backends.build_comm_graph(ir, spec)
    assert a is b
    assert len(backends.GRAPH_MEMO) == 1
    # a different spec is a different graph
    c = backends.build_comm_graph(ir, ClusterSpec(3, 1, "training"))
    assert c is not a
    assert len(backends.GRAPH_MEMO) == 2
    backends.GRAPH_MEMO.clear()


def test_graph_memo_distinguishes_structurally_different_models():
    from repro.models.builder import NetBuilder

    def variant(flip: bool):
        b = NetBuilder("same_name", 8, input_hw=(16, 16))
        b.conv("conv0", 3, 8, bias=flip, bn=not flip)
        b.fc("logits", 10)
        b.softmax("predictions")
        return b.build()

    backends.GRAPH_MEMO.clear()
    spec = ClusterSpec(2, 1, "training")
    a = backends.build_comm_graph(variant(True), spec)
    b = backends.build_comm_graph(variant(False), spec)
    assert a is not b
    assert len(backends.GRAPH_MEMO) == 2
    backends.GRAPH_MEMO.clear()


def test_graph_memo_capacity_bounded():
    backends.GRAPH_MEMO.clear()
    ir = tiny_model()
    for w in range(1, backends.GRAPH_MEMO.cap + 4):
        backends.build_comm_graph(ir, ClusterSpec(w, 1, "inference"))
    assert len(backends.GRAPH_MEMO) == backends.GRAPH_MEMO.cap
    backends.GRAPH_MEMO.clear()


def test_graph_memo_evicts_least_recently_used():
    backends.GRAPH_MEMO.clear()
    ir = tiny_model()
    kept = backends.build_comm_graph(ir, ClusterSpec(1, 1, "inference"))
    for w in range(2, backends.GRAPH_MEMO.cap + 4):
        # touching the first graph keeps it fresh while others cycle out
        assert backends.build_comm_graph(ir, ClusterSpec(1, 1, "inference")) is kept
        backends.build_comm_graph(ir, ClusterSpec(w, 1, "inference"))
    assert backends.build_comm_graph(ir, ClusterSpec(1, 1, "inference")) is kept
    backends.GRAPH_MEMO.clear()
