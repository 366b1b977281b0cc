"""Trace ingestion: schema validation, generators, determinism."""

from __future__ import annotations

import dataclasses

import pytest

from repro.replay.trace import (
    GENERATORS,
    JobTrace,
    SyntheticTraceSpec,
    TraceError,
    TraceGenerator,
    UnknownGeneratorError,
    generate_trace,
    register_generator,
)


def job(**kw):
    base = dict(job_id="j", model="AlexNet v2", iterations=4.0)
    base.update(kw)
    return JobTrace(**base)


class TestJobTraceValidation:
    def test_valid_job(self):
        t = job(n_workers=4, n_ps=2, arrival_s=3.5)
        assert t.slots == 6

    def test_unknown_model_suggests(self):
        with pytest.raises(TraceError, match="AlexNet v2"):
            job(model="AlexNet v22")

    def test_unknown_algorithm_suggests(self):
        with pytest.raises(TraceError, match="did you mean 'tic'"):
            job(algorithm="ticc")

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_bad_arrival_rejected(self, bad):
        with pytest.raises(TraceError, match="arrival_s"):
            job(arrival_s=bad)

    def test_exactly_one_budget(self):
        with pytest.raises(TraceError, match="exactly one"):
            job(iterations=4.0, duration_s=10.0)
        with pytest.raises(TraceError, match="exactly one"):
            job(iterations=None)

    @pytest.mark.parametrize("bad", [0.0, -3.0, float("nan"), float("inf")])
    def test_bad_budget_rejected(self, bad):
        with pytest.raises(TraceError, match="budget"):
            job(iterations=bad)

    def test_duration_budget_accepted(self):
        assert job(iterations=None, duration_s=60.0).duration_s == 60.0

    def test_empty_job_id(self):
        with pytest.raises(TraceError, match="job_id"):
            job(job_id="")

    def test_nonpositive_shape(self):
        with pytest.raises(TraceError, match="positive"):
            job(n_workers=0)


class TestGeneratorRegistry:
    def test_builtins_registered(self):
        assert {"poisson", "uniform", "bursty"} <= set(GENERATORS)

    def test_unknown_name_suggests(self):
        with pytest.raises(UnknownGeneratorError, match="did you mean 'poisson'"):
            GENERATORS["poison"]

    def test_register_and_lookup(self):
        gen = TraceGenerator(
            name="_test_frontload",
            description="all jobs at t=0",
            fn=lambda u, n, h: [0.0] * n,
        )
        register_generator(gen)
        try:
            assert GENERATORS["_test_frontload"] is gen
            spec = SyntheticTraceSpec(n_jobs=3, arrival="_test_frontload")
            assert all(t.arrival_s == 0.0 for t in generate_trace(spec))
        finally:
            del GENERATORS["_test_frontload"]


class TestSyntheticSpecValidation:
    def test_unknown_arrival_process(self):
        with pytest.raises(UnknownGeneratorError, match="unknown trace generator"):
            SyntheticTraceSpec(arrival="possion")

    def test_unknown_model_in_mix(self):
        with pytest.raises(TraceError, match="unknown model"):
            SyntheticTraceSpec(models=(("NoNet", 1.0),))

    def test_bad_weight(self):
        with pytest.raises(TraceError, match="weight"):
            SyntheticTraceSpec(models=(("AlexNet v2", 0.0),))

    def test_bad_iteration_range(self):
        with pytest.raises(TraceError, match="iterations"):
            SyntheticTraceSpec(iterations=(8, 4))

    def test_bad_horizon(self):
        with pytest.raises(TraceError, match="horizon_s"):
            SyntheticTraceSpec(horizon_s=float("inf"))


class TestGenerateTrace:
    def test_deterministic_per_seed(self):
        spec = SyntheticTraceSpec(n_jobs=40)
        assert generate_trace(spec, seed=3) == generate_trace(spec, seed=3)
        assert generate_trace(spec, seed=3) != generate_trace(spec, seed=4)

    def test_sorted_arrivals_and_ids(self):
        trace = generate_trace(SyntheticTraceSpec(n_jobs=25), seed=1)
        arrivals = [t.arrival_s for t in trace]
        assert arrivals == sorted(arrivals)
        assert [t.job_id for t in trace] == [f"job-{i:04d}" for i in range(25)]

    def test_draws_respect_spec(self):
        spec = SyntheticTraceSpec(
            n_jobs=60,
            models=(("AlexNet v2", 0.5), ("Inception v1", 0.5)),
            algorithms=(("tic", 1.0),),
            workers=((2, 1.0), (4, 1.0)),
            iterations=(3, 5),
        )
        trace = generate_trace(spec, seed=0)
        assert {t.model for t in trace} == {"AlexNet v2", "Inception v1"}
        assert {t.algorithm for t in trace} == {"tic"}
        assert {t.n_workers for t in trace} == {2, 4}
        assert all(3 <= t.iterations <= 5 for t in trace)
        assert all(t.arrival_s <= spec.horizon_s for t in trace)

    @pytest.mark.parametrize("arrival", ["poisson", "uniform", "bursty"])
    def test_every_builtin_generator_yields_valid_traces(self, arrival):
        spec = SyntheticTraceSpec(n_jobs=16, arrival=arrival)
        trace = generate_trace(spec, seed=2)
        assert len(trace) == 16
        assert all(isinstance(t, JobTrace) for t in trace)

    def test_frozen(self):
        t = generate_trace(SyntheticTraceSpec(n_jobs=1), seed=0)[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            t.model = "VGG-16"
