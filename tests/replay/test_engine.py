"""The epoch replay scheduler: admission, departures, determinism.

Every test drives tiny traces (a handful of 3-slot AlexNet jobs) so a
composition simulation costs a fraction of a second; the shared
module-scoped runner lets compositions memoize across tests.
"""

from __future__ import annotations

import pytest

from repro.replay.admission import ADMISSIONS, AdmissionPolicy, register_admission
from repro.replay.aggregate import ReplayAggregate
from repro.replay.engine import (
    JOB_COLUMNS,
    ReplayCluster,
    ReplayError,
    replay,
)
from repro.replay.sink import ListSink
from repro.replay.trace import JobTrace
from repro.sim import SimConfig
from repro.sweep import SweepRunner

CFG = SimConfig(seed=0)


@pytest.fixture(scope="module")
def runner():
    with SweepRunner(jobs=1) as r:
        yield r


def jt(i, arrival=0.0, iterations=2.0, model="AlexNet v2", workers=2,
       algorithm="tic", **kw):
    return JobTrace(
        job_id=f"job-{i:04d}", model=model, n_workers=workers,
        algorithm=algorithm, arrival_s=arrival, iterations=iterations, **kw
    )


def run(traces, runner, cluster=None, **kw):
    cluster = cluster or ReplayCluster(n_hosts=4, slots_per_host=2)
    sink = ListSink(aggregate=ReplayAggregate(cluster.total_slots))
    kw.setdefault("config", CFG)
    result = replay(traces, cluster, runner=runner, sink=sink, **kw)
    return result, sink


class TestClusterValidation:
    def test_unknown_placement_suggests(self):
        with pytest.raises(KeyError, match="packed"):
            ReplayCluster(placement="packedd")

    def test_unknown_platform(self):
        with pytest.raises(ReplayError, match="platform"):
            ReplayCluster(platform="envZ")

    def test_bad_shape(self):
        with pytest.raises(ReplayError, match="positive"):
            ReplayCluster(n_hosts=0)

    def test_total_slots(self):
        assert ReplayCluster(n_hosts=4, slots_per_host=2).total_slots == 8


class TestReplaySemantics:
    def test_all_jobs_complete_with_consistent_rows(self, runner):
        traces = [jt(i, arrival=30.0 * i) for i in range(4)]
        result, sink = run(traces, runner)
        assert result.done == 4
        assert result.quarantined == []
        assert len(sink.rows) == 4
        for row in sink.rows:
            assert set(row) == set(JOB_COLUMNS)
            assert row["status"] == "done"
            assert row["admit_s"] >= row["arrival_s"]
            assert row["finish_s"] > row["admit_s"]
            assert row["jct_s"] == pytest.approx(
                row["finish_s"] - row["arrival_s"], abs=1e-5
            )
            assert row["queue_delay_s"] == pytest.approx(
                row["admit_s"] - row["arrival_s"], abs=1e-5
            )
        finishes = [r["finish_s"] for r in sink.rows]
        assert result.makespan_s == pytest.approx(max(finishes), abs=1e-5)

    def test_capacity_forces_queueing(self, runner):
        # 8 slots, 3-slot jobs, all arriving at t=0: at most 2 run at
        # once, so the third job must wait for a departure.
        traces = [jt(i) for i in range(3)]
        result, sink = run(traces, runner)
        delays = sorted(r["queue_delay_s"] for r in sink.rows)
        assert delays[0] == 0.0 and delays[1] == 0.0
        assert delays[2] > 0.0
        assert result.queued == 1
        assert result.queue_peak >= 1

    def test_contention_slows_coscheduled_jobs(self, runner):
        # two 3-slot jobs packed onto 3 two-slot hosts must share the
        # middle host's NICs: at least one runs slower than dedicated
        traces = [jt(0), jt(1)]
        _, sink = run(
            traces, runner, cluster=ReplayCluster(n_hosts=3, slots_per_host=2)
        )
        slowdowns = [r["slowdown"] for r in sink.rows]
        # scheduling jitter can nudge one job fractionally below 1.0;
        # contention must still slow at least one of them measurably
        assert all(s > 0.99 for s in slowdowns)
        assert max(slowdowns) > 1.0

    def test_oversized_job_quarantined(self, runner):
        traces = [jt(0), jt(1, workers=20)]
        result, sink = run(traces, runner)
        assert result.done == 1
        assert [j for j, _ in result.quarantined] == ["job-0001"]
        statuses = {r["job_id"]: r["status"] for r in sink.rows}
        assert statuses == {"job-0000": "done", "job-0001": "quarantined"}

    def test_duration_budget_converted(self, runner):
        # a duration budget runs ~duration seconds uncontended
        traces = [jt(0, iterations=None, duration_s=40.0)]
        _, sink = run(traces, runner)
        (row,) = sink.rows
        assert row["iterations"] > 0
        assert row["run_s"] == pytest.approx(40.0, rel=0.35)

    def test_uniform_mode_overrides_job_algorithms(self, runner):
        traces = [jt(0, algorithm="tic"), jt(1, algorithm="tac")]
        _, sink = run(traces, runner, algorithm="baseline")
        assert {r["job_algorithm"] for r in sink.rows} == {"baseline"}
        assert {r["algorithm"] for r in sink.rows} == {"baseline"}

    def test_mix_mode_keeps_job_algorithms(self, runner):
        traces = [jt(0, algorithm="tic"), jt(1, algorithm="tac")]
        _, sink = run(traces, runner, algorithm="mix")
        assert {r["job_algorithm"] for r in sink.rows} == {"tic", "tac"}

    def test_backfill_slips_around_blocked_head(self, runner):
        # 8 slots: a 5-slot job runs; a second 5-slot job blocks the
        # fifo queue head while a 3-slot job behind it would fit.
        traces = [
            jt(0, workers=4),
            jt(1, arrival=1.0, workers=4),
            jt(2, arrival=2.0, workers=2),
        ]
        _, fifo_sink = run(traces, runner, admission="fifo")
        _, bf_sink = run(traces, runner, admission="backfill")
        fifo = {r["job_id"]: r["queue_delay_s"] for r in fifo_sink.rows}
        backfill = {r["job_id"]: r["queue_delay_s"] for r in bf_sink.rows}
        assert fifo["job-0002"] > 0.0
        assert backfill["job-0002"] == 0.0

    def test_stalled_policy_raises(self, runner):
        register_admission(
            AdmissionPolicy("_test_never", "admits nothing", lambda s, f: [])
        )
        try:
            with pytest.raises(ReplayError, match="stalled"):
                run([jt(0)], runner, admission="_test_never")
        finally:
            del ADMISSIONS["_test_never"]

    def test_overcommitting_policy_raises(self, runner):
        register_admission(AdmissionPolicy(
            "_test_greedy", "ignores capacity",
            lambda s, f: list(range(len(s))),
        ))
        try:
            with pytest.raises(ReplayError, match="free"):
                run([jt(i) for i in range(4)], runner,
                    admission="_test_greedy")
        finally:
            del ADMISSIONS["_test_greedy"]

    def test_telemetry_counters(self, runner):
        before = runner.telemetry.as_dict()
        result, _ = run([jt(i) for i in range(3)], runner)
        delta = runner.telemetry.delta_since(before)
        assert delta["replay_jobs_admitted"] == 3
        assert delta["replay_jobs_done"] == 3
        assert delta["replay_epochs"] == result.epochs


class TestDeterminism:
    def test_serial_equals_two_workers(self):
        traces = [jt(i, arrival=20.0 * i) for i in range(4)]
        rows = []
        for jobs in (1, 2):
            with SweepRunner(jobs=jobs) as r:
                _, sink = run(traces, r)
                rows.append(sink.rows)
        assert rows[0] == rows[1]

    def test_same_inputs_same_rows(self, runner):
        traces = [jt(i, arrival=25.0 * i) for i in range(3)]
        _, first = run(traces, runner)
        _, second = run(traces, runner)
        assert first.rows == second.rows

    def test_compositions_memoized(self, runner):
        # 4 identical jobs arriving together: the (2-job) steady-state
        # composition appears repeatedly but is simulated once.
        traces = [jt(i) for i in range(4)]
        result, _ = run(traces, runner)
        assert result.epochs > result.compositions
