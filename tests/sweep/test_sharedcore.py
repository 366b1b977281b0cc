"""Cells that share a compiled core: pooled runs equal serial runs.

The runner compiles one core per group (same model, cluster spec,
platform and batch factor) and simulates every cell of the group on it,
inline at ``jobs=1`` and on the persistent pool otherwise. Results must
not depend on which lane ran a group, nor on how many ``run_cells``
calls the pool has already served.
"""

from __future__ import annotations

from repro.ps import ClusterSpec
from repro.sim import SimConfig
from repro.sweep import SimCell, SweepRunner

CFG = SimConfig(iterations=2, warmup=0)


def grid_cells() -> list[SimCell]:
    cells = [
        SimCell(model="AlexNet v2", spec=ClusterSpec(2, 1, "training"),
                algorithm=a, config=CFG)
        for a in ("baseline", "tic", "tac")
    ]
    # a second, single-cell group, and a seed variant of the first group
    cells.append(SimCell(model="AlexNet v2", spec=ClusterSpec(4, 1, "training"),
                         algorithm="tic", config=CFG))
    cells.append(SimCell(model="AlexNet v2", spec=ClusterSpec(2, 1, "training"),
                         algorithm="tic", config=CFG.with_(seed=3)))
    return cells


def assert_results_identical(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.summary() == y.summary()
        assert x.iteration_times.tolist() == y.iteration_times.tolist()
        for ix, iy in zip(x.iterations, y.iterations):
            assert ix.worker_finish == iy.worker_finish
            assert ix.efficiency.upper == iy.efficiency.upper
            assert ix.efficiency.lower == iy.efficiency.lower


class TestSharedSweep:
    def test_shared_parallel_equals_serial(self):
        cells = grid_cells()
        serial_runner = SweepRunner(jobs=1)
        serial = serial_runner.run_cells(cells)
        # the four 2-worker cells compile one core between them
        assert serial_runner.telemetry.get("groups_run") == 2
        with SweepRunner(jobs=2) as runner:
            parallel = runner.run_cells(cells)
            again = runner.run_cells(cells)  # same pool, second call
            assert runner.telemetry.get("groups_run") == 4
        assert_results_identical(serial, parallel)
        assert_results_identical(serial, again)
