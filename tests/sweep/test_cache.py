"""Cache-key stability and on-disk cache behavior."""

import dataclasses
import json
import os

from repro.faults import FaultPlan, StragglerBurst
from repro.ps import ClusterSpec
from repro.sim import SimConfig
from repro.sweep import FnTask, ResultCache, SimCell, cache_key


#: one non-default value per ``SimConfig`` field that changes results
#: (``trace`` is observational and deliberately shares one key).
CONFIG_AXES = {
    "seed": 7,
    "enforcement": "dag",
    "grpc_reorder_prob": 0.0,
    "jitter_sigma": 0.05,
    "chunk_bytes": 1 << 16,
    "iterations": 3,
    "warmup": 1,
    "device_slowdown": (("worker:0", 1.5),),
    "faults": FaultPlan((
        StragglerBurst("worker:0", start=0.0, duration=0.01, factor=2.0),
    )),
}


def make_cell(**overrides) -> SimCell:
    base = dict(
        model="AlexNet v2",
        spec=ClusterSpec(2, 1, "training"),
        algorithm="tic",
        platform="envG",
        config=SimConfig(iterations=2, warmup=0),
    )
    base.update(overrides)
    return SimCell(**base)


class TestKeyStability:
    def test_equal_cells_equal_keys(self):
        a = make_cell()
        b = make_cell()
        assert a is not b
        assert a.cache_key_material() == b.cache_key_material()
        assert cache_key(a.cache_key_material()) == cache_key(b.cache_key_material())

    def test_key_is_stable_across_calls(self):
        cell = make_cell()
        keys = {cache_key(cell.cache_key_material()) for _ in range(5)}
        assert len(keys) == 1

    def test_every_axis_changes_the_key(self):
        base = cache_key(make_cell().cache_key_material())
        variants = [
            make_cell(model="VGG-16"),
            make_cell(spec=ClusterSpec(4, 1, "training")),
            make_cell(spec=ClusterSpec(2, 2, "training")),
            make_cell(spec=ClusterSpec(2, 1, "inference")),
            make_cell(spec=ClusterSpec(2, 1, "training", sharding="round_robin")),
            make_cell(algorithm="tac"),
            make_cell(platform="envC"),
            make_cell(batch_factor=2.0),
        ]
        config = make_cell().config
        fields = {f.name for f in dataclasses.fields(SimConfig)}
        assert set(CONFIG_AXES) == fields - {"trace"}
        for name, value in CONFIG_AXES.items():
            assert getattr(config, name) != value, name
            variants.append(make_cell(config=config.with_(**{name: value})))
        keys = [cache_key(v.cache_key_material()) for v in variants]
        assert len(set(keys + [base])) == len(variants) + 1

    def test_fn_task_keys(self):
        a = FnTask(fn="repro.api.scenarios:model_characteristics",
                   kwargs=(("name", "AlexNet v2"),))
        b = FnTask(fn="repro.api.scenarios:model_characteristics",
                   kwargs=(("name", "AlexNet v2"),))
        c = FnTask(fn="repro.api.scenarios:model_characteristics",
                   kwargs=(("name", "VGG-16"),))
        assert a.cache_key_material() == b.cache_key_material()
        assert a.cache_key_material() != c.cache_key_material()

    def test_fn_task_make_sorts_kwargs(self):
        from repro.api.scenarios import model_characteristics

        task = FnTask.make(model_characteristics, name="AlexNet v2")
        assert task.fn == "repro.api.scenarios:model_characteristics"
        assert task.resolve() is model_characteristics


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = cache_key("some material")
        assert cache.get(key) is None
        assert cache.stats.misses == 1
        cache.put(key, {"value": 42})
        assert key in cache
        assert cache.get(key) == {"value": 42}
        assert cache.stats.hits == 1
        assert cache.entry_count() == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = cache_key("material")
        cache.put(key, {"value": 1})
        with open(cache.path(key), "w") as fh:
            fh.write("{not json")
        assert cache.get(key) is None

    def test_non_utf8_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = cache_key("material")
        cache.put(key, {"value": 1})
        with open(cache.path(key), "wb") as fh:
            fh.write(b"\xff\xfe\x00garbage")
        assert cache.get(key) is None
        assert cache.stats.misses == 1

    def test_note_invalid_reclassifies_hit(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = cache_key("material")
        cache.put(key, {"weird": True})
        assert cache.get(key) is not None
        cache.note_invalid()
        assert cache.stats.hits == 0
        assert cache.stats.misses == 1

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        for i in range(5):
            cache.put(cache_key(f"m{i}"), {"value": i})
        leftovers = [
            name
            for _dir, _subdirs, files in os.walk(tmp_path)
            for name in files
            if name.startswith(".tmp-")
        ]
        assert leftovers == []

    def test_entries_are_valid_json(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = cache_key("material")
        cache.put(key, {"a": [1.5, None, "x"]})
        with open(cache.path(key)) as fh:
            assert json.load(fh) == {"a": [1.5, None, "x"]}
