"""Fault-plan surface tests: validation, name resolution, cache keys,
job-mix scoping (ISSUE 9).

The bit-exactness of faulted execution lives in
``test_faults_golden.py``; this file pins the declarative layer — event
construction errors, compile-time did-you-mean diagnostics, the
``SimConfig.device_slowdown`` name validation (satellite 1), the fold of
fault plans into sweep cache keys (satellite 2) and the ``j<i>/``
scoping of per-job plans.
"""

from __future__ import annotations

import pytest

from repro.faults import (
    FaultPlan,
    FaultPlanError,
    HostFailure,
    LinkDegradation,
    NicFlap,
    StragglerBurst,
)
from repro.ps import ClusterSpec
from repro.sim import CompiledCore, SimConfig, SimVariant
from repro.sim.jobmix import JobMixSpec, JobSpec
from repro.sweep.spec import SimCell

from .test_engine_golden import FLAT, build_cluster, layerwise

PLAN = FaultPlan((
    LinkDegradation("ps:0", "worker:0", start=0.0, duration=0.05, factor=0.25),
    StragglerBurst("worker:1", start=0.01, duration=0.05, factor=3.0),
))


def _variant(config: SimConfig) -> SimVariant:
    ir, cluster = build_cluster("ps")
    return SimVariant(CompiledCore(cluster, FLAT), layerwise(ir), config)


# ----------------------------------------------------------------------
# event construction
# ----------------------------------------------------------------------
class TestEventValidation:
    def test_negative_start_rejected(self):
        with pytest.raises(FaultPlanError, match="start"):
            StragglerBurst("worker:0", start=-0.1, duration=1.0, factor=2.0)

    def test_zero_duration_rejected(self):
        with pytest.raises(FaultPlanError, match="duration"):
            NicFlap("worker:0", start=0.0, duration=0.0, factor=0.5)

    def test_bandwidth_factor_above_one_rejected(self):
        with pytest.raises(FaultPlanError, match="factor"):
            LinkDegradation("a", "b", start=0.0, duration=1.0, factor=1.5)

    def test_straggler_factor_below_one_rejected(self):
        with pytest.raises(FaultPlanError, match="factor"):
            StragglerBurst("worker:0", start=0.0, duration=1.0, factor=0.5)

    def test_host_failure_needs_positive_recovery(self):
        with pytest.raises(FaultPlanError, match="duration"):
            HostFailure("ps:0", start=0.0, recovery=0.0)

    def test_plan_rejects_foreign_events(self):
        with pytest.raises(FaultPlanError, match="fault events"):
            FaultPlan(("not an event",))

    def test_plan_compose_and_scope(self):
        plan = FaultPlan((PLAN.events[0],)) + FaultPlan((PLAN.events[1],))
        assert plan.events == PLAN.events
        scoped = plan.scoped("j0/")
        assert scoped.events[0].src == "j0/ps:0"
        assert scoped.events[0].dst == "j0/worker:0"
        assert scoped.events[1].device == "j0/worker:1"
        assert not plan.is_empty and FaultPlan().is_empty

    def test_config_rejects_non_plan(self):
        with pytest.raises(ValueError, match="FaultPlan"):
            SimConfig(faults="link down")
        with pytest.raises(ValueError, match="FaultPlan"):
            JobSpec(model="AlexNet v2", faults=("nope",))


# ----------------------------------------------------------------------
# compile-time name resolution
# ----------------------------------------------------------------------
class TestNameResolution:
    def test_unknown_straggler_device_suggests(self):
        plan = FaultPlan((StragglerBurst("worker:9", 0.0, 1.0, 2.0),))
        with pytest.raises(FaultPlanError, match="did you mean 'worker:1'"):
            _variant(SimConfig(faults=plan))

    def test_unknown_nic_device_suggests(self):
        plan = FaultPlan((NicFlap("wroker:0", 0.0, 1.0, 0.5),))
        with pytest.raises(FaultPlanError, match="did you mean 'worker:0'"):
            _variant(SimConfig(faults=plan))

    def test_unknown_link_lists_links(self):
        # both names exist but no channel connects the two workers in a
        # PS topology — the error enumerates the real links.
        plan = FaultPlan((LinkDegradation("worker:0", "worker:1", 0.0, 1.0, 0.5),))
        with pytest.raises(FaultPlanError, match="ps:0->worker:0"):
            _variant(SimConfig(faults=plan))

    def test_device_slowdown_typo_suggests(self):
        # satellite 1: static slowdowns get the same compile-time check
        with pytest.raises(ValueError, match="did you mean 'worker:0'"):
            _variant(SimConfig(device_slowdown=(("wroker:0", 2.0),)))

    def test_fault_windows_are_name_resolved(self):
        sim = _variant(SimConfig(faults=PLAN))
        kinds = {(kind, entity) for kind, entity, *_ in sim.fault_windows}
        assert ("compute", "worker:1") in kinds
        assert ("wire", "ps:0->worker:0") in kinds
        assert ("wire", "worker:0->ps:0") in kinds  # both directions


# ----------------------------------------------------------------------
# sweep cache keys (satellite 2)
# ----------------------------------------------------------------------
class TestCacheKeys:
    CELL = SimCell(
        model="AlexNet v2",
        spec=ClusterSpec(2, 1, "training"),
        config=SimConfig(iterations=2, warmup=0),
    )

    def test_none_plan_is_absent_from_key(self):
        # pre-fault cache entries keep their keys: a None plan never
        # appears in the payload at all.
        payload = self.CELL.key_payload()
        assert "faults" not in payload["cell"]["config"]

    def test_faulted_and_fault_free_never_share_an_entry(self):
        faulted = self.CELL.with_(config=self.CELL.config.with_(faults=PLAN))
        assert (
            faulted.cache_key_material() != self.CELL.cache_key_material()
        )
        assert "link_degradation" in faulted.cache_key_material()

    def test_distinct_plans_get_distinct_keys(self):
        a = self.CELL.with_(config=self.CELL.config.with_(faults=PLAN))
        b = self.CELL.with_(
            config=self.CELL.config.with_(
                faults=FaultPlan((HostFailure("ps:0", 0.1, 0.2),))
            )
        )
        assert a.cache_key_material() != b.cache_key_material()
        assert (
            a.cache_key_material()
            == self.CELL.with_(
                config=self.CELL.config.with_(faults=PLAN)
            ).cache_key_material()
        )

    def test_kernel_and_trace_still_excluded(self):
        faulted = self.CELL.with_(config=self.CELL.config.with_(faults=PLAN))
        twin = faulted.with_(config=faulted.config.with_(trace=True))
        assert twin.cache_key_material() == faulted.cache_key_material()
        assert '"kernel"' not in faulted.cache_key_material()


# ----------------------------------------------------------------------
# job-mix scoping
# ----------------------------------------------------------------------
class TestJobMixScoping:
    def test_job_plan_is_scoped_into_namespace(self):
        from repro.sim import build_jobmix_graph

        job_plan = FaultPlan((
            StragglerBurst("worker:0", start=0.0, duration=0.1, factor=2.0),
            LinkDegradation("ps:0", "worker:1", 0.0, 0.1, 0.5),
        ))
        spec = JobMixSpec(jobs=(
            JobSpec(model="AlexNet v2", n_workers=2, faults=job_plan),
        ))
        cluster = build_jobmix_graph(None, spec)
        core = CompiledCore(cluster, FLAT)
        assert core.job_faults is not None
        sim = SimVariant(core, None, SimConfig(iterations=1))
        entities = {entity for _kind, entity, *_ in sim.fault_windows}
        assert "j0/worker:0" in entities
        assert "j0/ps:0->j0/worker:1" in entities

    def test_job_and_config_plans_merge(self):
        from repro.sim import build_jobmix_graph

        spec = JobMixSpec(jobs=(
            JobSpec(
                model="AlexNet v2",
                n_workers=2,
                faults=FaultPlan((StragglerBurst("worker:0", 0.0, 0.1, 2.0),)),
            ),
        ))
        cluster = build_jobmix_graph(None, spec)
        core = CompiledCore(cluster, FLAT)
        cfg = SimConfig(
            iterations=1,
            faults=FaultPlan((StragglerBurst("j0/worker:1", 0.0, 0.1, 3.0),)),
        )
        sim = SimVariant(core, None, cfg)
        entities = {entity for _kind, entity, *_ in sim.fault_windows}
        assert {"j0/worker:0", "j0/worker:1"} <= entities
