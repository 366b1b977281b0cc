"""Sweep-runner behavior: hit/miss, rerun, dedupe, parallel == serial,
unit splitting, quarantine, the persistent pool, lossless serialization,
and grid expansion."""

import os

import numpy as np
import pytest

from repro.ps import ClusterSpec
from repro.sim import SimConfig, simulate_cluster, speedup_vs_baseline
from repro.sweep import (
    FnTask,
    GridSpec,
    SimCell,
    SweepRunner,
    cache_key,
    result_from_dict,
    result_to_dict,
)

CFG = SimConfig(iterations=2, warmup=0)


def cache_key_of(cell: SimCell) -> str:
    return cache_key(cell.cache_key_material())


def tiny_cells():
    return [
        SimCell(model="AlexNet v2", spec=ClusterSpec(2, 1, "training"),
                algorithm=a, config=CFG)
        for a in ("baseline", "tic")
    ]


def _pid(_=None, tag=None) -> int:
    return os.getpid()


def assert_results_identical(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.summary() == y.summary()
        assert x.iteration_times.tolist() == y.iteration_times.tolist()
        for ix, iy in zip(x.iterations, y.iterations):
            assert ix.worker_finish == iy.worker_finish
            assert ix.efficiency.upper == iy.efficiency.upper
            assert ix.efficiency.lower == iy.efficiency.lower


class TestSerialization:
    def test_roundtrip_is_bitwise(self):
        result = simulate_cluster(
            "AlexNet v2", ClusterSpec(2, 1, "training"), algorithm="tic",
            config=SimConfig(iterations=2, warmup=1),
        )
        back = result_from_dict(result_to_dict(result))
        assert back.summary() == result.summary()
        assert back.iteration_times.tolist() == result.iteration_times.tolist()
        assert len(back.warmup) == len(result.warmup)
        assert back.warmup[0].makespan == result.warmup[0].makespan

    def test_json_roundtrip_is_bitwise(self):
        import json

        result = simulate_cluster(
            "AlexNet v2", ClusterSpec(2, 1, "training"), config=CFG
        )
        payload = json.loads(json.dumps(result_to_dict(result)))
        assert_results_identical([result_from_dict(payload)], [result])

    def test_version_check(self):
        with pytest.raises(ValueError, match="format"):
            result_from_dict({"format": 999})


class TestCacheBehavior:
    def test_second_run_hits(self, tmp_path):
        runner = SweepRunner(jobs=1, cache_dir=str(tmp_path))
        cells = tiny_cells()
        first = runner.run_cells(cells)
        assert runner.stats.misses == len(cells)
        assert runner.stats.writes == len(cells)
        second = runner.run_cells(cells)
        assert runner.stats.hits == len(cells)
        assert runner.stats.writes == len(cells)  # no re-simulation
        assert_results_identical(first, second)

    def test_cached_equals_fresh(self, tmp_path):
        cells = tiny_cells()
        cached_runner = SweepRunner(jobs=1, cache_dir=str(tmp_path))
        cached_runner.run_cells(cells)
        warm = SweepRunner(jobs=1, cache_dir=str(tmp_path)).run_cells(cells)
        fresh = SweepRunner(jobs=1, cache_dir=None).run_cells(cells)
        assert_results_identical(warm, fresh)

    def test_rerun_recomputes(self, tmp_path):
        cells = tiny_cells()
        SweepRunner(jobs=1, cache_dir=str(tmp_path)).run_cells(cells)
        rerunner = SweepRunner(jobs=1, cache_dir=str(tmp_path), rerun=True)
        rerunner.run_cells(cells)
        assert rerunner.stats.hits == 0
        assert rerunner.stats.writes == len(cells)

    def test_no_cache_dir_disables_cache(self):
        runner = SweepRunner(jobs=1, cache_dir=None)
        runner.run_cells(tiny_cells())
        assert runner.stats.as_dict() == {"hits": 0, "misses": 0, "writes": 0}

    def test_dedupe_collapses_equal_cells(self, tmp_path):
        runner = SweepRunner(jobs=1, cache_dir=str(tmp_path))
        cells = tiny_cells()
        results = runner.run_cells(cells + cells)
        assert runner.stats.misses == len(cells)  # not 2x
        assert_results_identical(results[: len(cells)], results[len(cells):])

    def test_stale_format_entry_recomputes_and_counts_as_miss(self, tmp_path):
        import json

        runner = SweepRunner(jobs=1, cache_dir=str(tmp_path))
        cells = tiny_cells()
        runner.run_cells(cells)
        # Corrupt one entry with a future format version.
        cache = runner._cache
        victim = cache.path(sorted(
            key for key in (
                cache_key_of(c) for c in cells
            )
        )[0])
        with open(victim) as fh:
            payload = json.load(fh)
        payload["format"] = 999
        with open(victim, "w") as fh:
            json.dump(payload, fh)

        fresh = SweepRunner(jobs=1, cache_dir=str(tmp_path))
        results = fresh.run_cells(cells)
        assert len(results) == len(cells)
        assert fresh.stats.hits == len(cells) - 1
        assert fresh.stats.misses == 1  # the rejected entry, reclassified
        assert fresh.stats.writes == 1  # recomputed and refreshed

    def test_fn_tasks_cache(self, tmp_path):
        runner = SweepRunner(jobs=1, cache_dir=str(tmp_path))
        task = FnTask(fn="repro.api.scenarios:model_characteristics",
                      kwargs=(("name", "AlexNet v2"),))
        first, = runner.run_tasks([task])
        assert runner.stats.misses == 1
        second, = runner.run_tasks([task])
        assert runner.stats.hits == 1
        assert first == second
        assert first["params"] > 0


class TestParallel:
    def test_parallel_equals_serial(self, tmp_path):
        cells = GridSpec(
            models=("AlexNet v2", "Inception v1"),
            workloads=("training", "inference"),
            worker_counts=(2,),
            ps_counts=(1,),
            algorithms=("baseline", "tic"),
        ).cells(CFG)
        serial = SweepRunner(jobs=1, cache_dir=None).run_cells(cells)
        with SweepRunner(jobs=2, cache_dir=None) as runner:
            parallel = runner.run_cells(cells)
            again = runner.run_cells(cells)  # same runner, same pool
        assert_results_identical(serial, parallel)
        assert_results_identical(serial, again)

    def test_small_batch_splits_groups_across_workers(self):
        """One 6-cell group at jobs=2 runs as two units, bit-identical
        to the serial single-unit run."""
        cells = [
            SimCell(model="AlexNet v2", spec=ClusterSpec(2, 1, "training"),
                    algorithm=a, config=CFG.with_(seed=s))
            for a in ("baseline", "tic") for s in (0, 1, 2)
        ]
        serial = SweepRunner(jobs=1)
        want = serial.run_cells(cells)
        assert serial.telemetry.get("groups_run") == 1
        with SweepRunner(jobs=2) as runner:
            got = runner.run_cells(cells)
            assert runner.telemetry.get("groups_run") == 2
        assert_results_identical(want, got)

    def test_wizarded_algorithm_never_baseline(self):
        """A scheduled cell split off into its own unit at jobs=2 runs its
        wizard schedule — never silently the baseline order."""
        spec = ClusterSpec(2, 1, "training")
        cells = [
            SimCell(model="AlexNet v2", spec=spec, algorithm=a, config=CFG)
            for a in ("baseline", "tic", "tac", "tic_plus")
        ]
        serial = SweepRunner(jobs=1).run_cells(cells)
        with SweepRunner(jobs=2) as runner:
            got = runner.run_cells(cells)
            more = runner.run_cells(
                [SimCell(model="AlexNet v2", spec=spec, algorithm="tac",
                         config=CFG.with_(seed=5))]
            )
        assert [r.algorithm for r in got] == ["baseline", "tic", "tac",
                                              "tic_plus"]
        assert more[0].algorithm == "tac"
        assert_results_identical(serial, got)
        # tic reorders transfers: equal times would mean a dropped schedule
        base, tic = got[0], got[1]
        assert base.iteration_times.tolist() != tic.iteration_times.tolist()

    def test_cached_pooled_and_serial_share_entries(self, tmp_path):
        cells = tiny_cells() + [
            SimCell(model="AlexNet v2", spec=ClusterSpec(4, 1, "training"),
                    algorithm="tic", config=CFG)
        ]
        with SweepRunner(jobs=2, cache_dir=str(tmp_path)) as runner:
            fresh = runner.run_cells(cells)
            assert runner.stats.writes == len(cells)
        warm = SweepRunner(jobs=1, cache_dir=str(tmp_path))
        hits = warm.run_cells(cells)
        assert warm.stats.hits == len(cells)
        assert_results_identical(fresh, hits)

    def test_pool_is_persistent_across_maps(self):
        with SweepRunner(jobs=2) as runner:
            first = runner._map(_pid, list(range(8)))
            pool = runner._pool
            assert pool is not None
            second = runner._map(_pid, list(range(8)))
            assert runner._pool is pool
            assert set(first) & set(second)  # same worker processes
            assert os.getpid() not in first
        assert runner._pool is None

    def test_fn_tasks_use_persistent_pool(self):
        with SweepRunner(jobs=2) as runner:
            runner.run_cells(tiny_cells())
            pool = runner._pool
            assert pool is not None
            # two DISTINCT tasks (identical ones dedupe to a single
            # pending item, which _map would run inline in the parent)
            values = runner.run_tasks(
                [FnTask.make(_pid, tag=1), FnTask.make(_pid, tag=2)]
            )
            assert runner._pool is pool  # same pool, not a fresh spawn
            assert os.getpid() not in values  # ran on workers, not inline

    def test_parallel_tasks_equal_serial(self):
        tasks = [
            FnTask(fn="repro.api.scenarios:model_characteristics",
                   kwargs=(("name", name),))
            for name in ("AlexNet v2", "Inception v1")
        ]
        serial = SweepRunner(jobs=1).run_tasks(tasks)
        parallel = SweepRunner(jobs=2).run_tasks(tasks)
        assert serial == parallel


POISON = SimCell(model="AlexNet v2", spec=ClusterSpec(2, 1, "training"),
                 algorithm="no_such_algorithm", config=CFG)


class TestQuarantine:
    @pytest.mark.parametrize("jobs,with_good", [
        (2, False),  # a single-cell batch on the pool
        (1, True),   # in-process units
        (2, True),   # pooled units
    ])
    def test_poison_cell_is_quarantined(self, jobs, with_good):
        good = tiny_cells()[0]
        cells = [good, POISON] if with_good else [POISON]
        with SweepRunner(jobs=jobs, retry_backoff_s=0.0) as runner:
            got = runner.run_cells(cells)
            assert got[-1] is None
            if with_good:
                want = SweepRunner(jobs=1).run_cells([good])
                assert_results_identical(got[:1], want)
            (cell, error), = runner.quarantined
            assert cell == POISON
            assert "no_such_algorithm" in error
            counters = runner.telemetry.as_dict()
            assert counters["quarantined"] == 1
            # a good cell sharing the poison cell's unit is retried too
            assert counters["retries"] >= runner.max_retries


class TestSpeedups:
    def test_matches_seed_helper(self):
        spec = ClusterSpec(2, 1, "training")
        cell = SimCell(model="AlexNet v2", spec=spec, algorithm="tic", config=CFG)
        (gain, sched, base), = SweepRunner(jobs=1).run_speedups([cell])
        ref_gain, ref_sched, ref_base = speedup_vs_baseline(
            "AlexNet v2", spec, algorithm="tic", config=CFG
        )
        assert gain == ref_gain
        assert_results_identical([sched, base], [ref_sched, ref_base])


class TestGridSpec:
    def test_expansion_size_and_order(self):
        grid = GridSpec(
            models=("AlexNet v2", "VGG-16"),
            workloads=("inference", "training"),
            worker_counts=(2, 4),
            ps_counts=(1, 2),
            algorithms=("tic",),
        )
        cells = list(grid.iter_cells(CFG))
        assert len(cells) == len(grid) == 16
        assert cells[0].spec.workload == "inference"
        assert [c.model for c in cells[:4]] == ["AlexNet v2"] * 4
        assert [c.spec.n_ps for c in cells[:4]] == [1, 2, 1, 2]

    def test_ps_from_workers_policy(self):
        grid = GridSpec(
            models=("AlexNet v2",), worker_counts=(2, 4, 8, 16),
            ps_from_workers=True,
        )
        cells = grid.cells(CFG)
        assert len(cells) == len(grid) == 4
        assert [c.spec.n_ps for c in cells] == [1, 1, 2, 4]
