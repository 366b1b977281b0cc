"""Multi-job co-scheduling: several jobs' DAGs on one shared cluster.

TicTac schedules one job on a dedicated cluster; real clusters run many
jobs whose transfers contend for shared links (Wang et al.,
arXiv:2002.10105). This module lifts the single-job assumption without
touching the engine's semantics for single jobs:

* :class:`JobSpec` names one job — a model, a communication backend
  ('ps'/'allreduce'), a cluster shape, a scheduling algorithm and an
  arrival offset;
* :class:`JobMixSpec` is a *set* of jobs plus a placement policy
  (:mod:`repro.backends.placement`) mapping every job's logical devices
  onto shared hosts. It is a first-class backend spec: ``SimCell`` grids,
  :func:`repro.sim.runner.simulate_cluster` and the sweep cache all
  consume it through the backend registry.

**Composition, not splicing.** :func:`build_jobmix_graph` builds each
job's cluster DAG through the (memoized) backend builders and returns a
light :class:`JobMixGraph`: the per-job parts, each at an op offset, the
placement's ``host_map`` and the namespaced (``j0/``, ``j1/``, ...)
per-job surfaces the metrics layer reads. The mix is a concatenation —
op ids of job *i* are its own ids plus an offset — so
:class:`~repro.sim.engine.CompiledCore` never walks a union DAG for it.
:func:`compose_core` compiles every job *shape* once (memoized in
:data:`SHAPE_CORE_MEMO` on model fingerprint, backend spec and
platform) and places the per-shape arrays at their op offsets with
:func:`repro.sim.compile.assemble` (the block assembly that also tiles
one job's worker replicas), remapping NIC resources through
``host_map``, the only coupling between jobs: devices sharing a host
share NIC resources in the composed core. The composed core equals,
attribute for attribute, the core compiled from the spliced union DAG
(pinned by ``tests/sim/test_jobmix_compose.py``); that union still
exists as :attr:`JobMixGraph.graph`, spliced on first access for the
readers that need op names (trace export, timelines). A 1-job mix on
the ``dedicated`` placement is **byte-identical** to the plain
single-job path (pinned by ``tests/sim/test_jobmix_golden.py``).

**Priority namespaces.** :func:`prepare_jobmix_schedule` runs the
ordering wizard per job (through the backends' wizard memo, keyed on
each job's reference projection) and composes the passes by prefixing
every priority key. The §5.1 counter groups are per (link, iteration)
and links are per job, so the composed rank arrays are re-normalized
densely within each job's own groups — rank arrays from independent
wizard passes can never collide across jobs. ``algorithm='mix'`` uses
each job's own :attr:`JobSpec.algorithm`; any other name applies one
algorithm to every job.

**Per-job memos only.** No memo holds a whole mix: a stream of mixes
(a cluster replay prices hundreds of compositions) rarely repeats one,
while its job shapes repeat constantly. Every mix is composed afresh
from per-job graph, wizard and shape-core entries.

Batch-size scaling (``batch_factor``) is not supported for mixes: every
job builds at its model's native batch size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from ..backends import Memo
from ..backends.placement import DEFAULT_SLOTS_PER_HOST
from ..core.schedules import Schedule
from ..graph import Graph, Op, Resource, ResourceKind
from ..graph.dag import GraphError
from ..ps.cluster import WORKLOADS, ClusterGraph, Transfer
from ..registry import did_you_mean
from .compile import assemble

#: workload label reported for mixed-job results.
MIX_WORKLOAD = "mix"

#: per-shape compiled cores, capped like the backends' graph memo (each
#: core pins its job's cluster DAG).
SHAPE_CORE_MEMO = Memo("shape_core", 8)


def job_label(index: int) -> str:
    """The namespace label of job ``index`` (``j0``, ``j1``, ...)."""
    return f"j{index}"


@dataclass(frozen=True)
class JobSpec:
    """One job of a mix: model x backend x shape x algorithm x arrival."""

    model: str
    backend: str = "ps"
    n_workers: int = 2
    n_ps: int = 1
    algorithm: str = "baseline"
    #: arrival offset in seconds: the job's roots release at this time.
    arrival: float = 0.0
    workload: str = "training"
    sharding: str = "greedy"
    #: per-job fault plan (see :mod:`repro.faults`), written against the
    #: job's *own* device names — the engine scopes it into the job's
    #: ``j<i>/`` namespace at compile time.
    faults: object = None

    def __post_init__(self) -> None:
        from ..backends import backends
        from ..core.wizard import ALGORITHMS
        from ..models.zoo import MODELS

        if self.model not in MODELS:
            raise ValueError(
                f"unknown model {self.model!r}" + did_you_mean(self.model, MODELS)
            )
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; one of {ALGORITHMS}"
                + did_you_mean(self.algorithm, ALGORITHMS)
            )
        # a job is one single-job cluster: a mix cannot nest
        known = [name for name in backends() if name != "jobmix"]
        if self.backend not in known:
            raise ValueError(
                f"unknown backend {self.backend!r}; one of {known}"
                + did_you_mean(self.backend, known)
            )
        if self.n_workers <= 0:
            raise ValueError("n_workers must be positive")
        if self.backend == "ps":
            if self.n_ps < 1:
                raise ValueError(f"a ps job needs n_ps >= 1, got {self.n_ps}")
            if self.workload not in WORKLOADS:
                raise ValueError(f"workload must be one of {WORKLOADS}")
            self.to_spec()  # the cluster spec checks the sharding name
        elif self.workload != "training":
            # only the PS spec carries a workload: anything else trains
            raise ValueError(
                f"backend {self.backend!r} only trains; "
                f"workload={self.workload!r} needs backend='ps'"
            )
        # NaN slips through a plain `< 0` check and would poison the
        # compiled deferred-release table (event time comparisons against
        # NaN are all False); infinities would defer the job forever.
        if not math.isfinite(self.arrival) or self.arrival < 0:
            raise ValueError(
                f"arrival offset must be finite and >= 0, got {self.arrival!r}"
            )
        if self.faults is not None:
            from ..faults.plan import FaultPlan

            if not isinstance(self.faults, FaultPlan):
                raise ValueError(
                    f"faults must be a FaultPlan or None, got {self.faults!r}"
                )

    def to_spec(self):
        """The backend spec this job's cluster DAG is built from."""
        from ..backends import make_spec

        if self.backend == "ps":
            return make_spec(
                "ps",
                n_workers=self.n_workers,
                n_ps=self.n_ps,
                workload=self.workload,
                sharding=self.sharding,
            )
        return make_spec(self.backend, n_workers=self.n_workers)

    def devices(self) -> list[str]:
        """Logical device names of this job (workers, then any PS)."""
        spec = self.to_spec()
        return list(spec.workers) + list(getattr(spec, "ps", []))


@dataclass(frozen=True)
class JobMixSpec:
    """A set of jobs placed on one shared cluster.

    Exposes the ``n_workers``/``n_ps``/``workload`` surface of a
    single-job spec (summed over jobs) so result assembly and the sweep
    runner consume mixes unchanged. ``n_hosts=0`` auto-sizes the shared
    cluster to the minimum feasible host count.
    """

    jobs: tuple[JobSpec, ...]
    placement: str = "dedicated"
    n_hosts: int = 0
    slots_per_host: int = DEFAULT_SLOTS_PER_HOST

    def __post_init__(self) -> None:
        if not self.jobs:
            raise ValueError("a job mix needs at least one job")
        if self.n_hosts < 0:
            raise ValueError(
                f"n_hosts must be >= 0 (0 = auto-size), got {self.n_hosts}"
            )
        if self.slots_per_host < 1:
            raise ValueError(
                f"slots_per_host must be >= 1, got {self.slots_per_host}"
            )
        # fail fast (with did-you-mean hints) on unknown placement names
        from ..backends.placement import PLACEMENTS

        PLACEMENTS[self.placement]

    # -- single-job-spec compatible surface -----------------------------
    @property
    def n_workers(self) -> int:
        return sum(j.n_workers for j in self.jobs)

    @property
    def n_ps(self) -> int:
        return sum(len(j.devices()) - j.n_workers for j in self.jobs)

    @property
    def workload(self) -> str:
        kinds = {j.workload for j in self.jobs}
        return kinds.pop() if len(kinds) == 1 else MIX_WORKLOAD

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(job_label(i) for i in range(len(self.jobs)))

    def solo(self, index: int) -> "JobMixSpec":
        """The 1-job mix of job ``index`` on dedicated hosts — the
        denominator of slowdown-vs-dedicated metrics."""
        return replace(
            self, jobs=(self.jobs[index],), placement="dedicated", n_hosts=0
        )


@dataclass(frozen=True)
class JobPart:
    """One job of a built mix: its own cluster DAG at an op-id offset."""

    label: str
    #: the job's backend-built DAG (memoized by the backends: read-only).
    cluster: ClusterGraph
    #: structural fingerprint of the job's model IR (shape-core memo key).
    fingerprint: str
    #: op id of the job's first op in the mix.
    offset: int

    @property
    def prefix(self) -> str:
        return self.label + "/"


@dataclass
class JobMixGraph:
    """A built mix (the engine's cluster surface): per-job parts placed
    on shared hosts, plus the namespaced per-job surfaces the metrics
    layer reads. The union DAG is spliced only when :attr:`graph` or
    :attr:`transfers_by_link` is first read."""

    spec: JobMixSpec
    parts: tuple[JobPart, ...] = ()
    #: op ids per (prefixed) worker device.
    worker_ops: dict[str, list[int]] = field(default_factory=dict)
    #: collective chunk metadata, prefixed (schedule lowering seam).
    chunk_params: dict[str, tuple[str, ...]] = field(default_factory=dict)
    chunk_order: dict[str, int] = field(default_factory=dict)
    #: op id range per job label (per-job completion accounting).
    job_ops: dict[str, range] = field(default_factory=dict)
    #: job label -> arrival offset in seconds.
    job_arrivals: dict[str, float] = field(default_factory=dict)
    #: logical device -> shared host (the placement's output).
    host_map: dict[str, str] = field(default_factory=dict)
    n_iterations: int = 1
    _union: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def graph(self) -> Graph:
        """The union DAG, every op, device, parameter and link prefixed
        with its job's namespace (spliced on first access)."""
        return self._spliced()[0]

    @property
    def transfers_by_link(self) -> dict[Resource, list[Transfer]]:
        """Every transfer of the union, grouped by its (prefixed) link."""
        return self._spliced()[1]

    def _spliced(self) -> tuple:
        if self._union is None:
            self._union = _splice(self)
        return self._union


def _prefixed_resource(res: Resource, prefix: str) -> Resource:
    if res.kind is ResourceKind.LINK:
        src, dst = res.name[len("link:"):].split("->")
        return Resource.link(prefix + src, prefix + dst)
    return Resource.compute(prefix + res.name[len("compute:"):])


def _splice(mix: JobMixGraph) -> tuple:
    """Splice the parts of ``mix`` into one namespaced union DAG; returns
    ``(graph, transfers_by_link)``."""
    union = Graph("jobmix/" + "+".join(j.model for j in mix.spec.jobs))
    transfers_by_link: dict[Resource, list[Transfer]] = {}
    for part in mix.parts:
        prefix, offset = part.prefix, part.offset

        def rebuild(op: Op, new_id: int, _prefix=prefix) -> Op:
            if op.resource is None:
                raise GraphError(f"op {op.name!r} has no resource tag")
            return Op(
                op_id=new_id,
                name=_prefix + op.name,
                kind=op.kind,
                resource=_prefixed_resource(op.resource, _prefix),
                cost=op.cost,
                param=_prefix + op.param if op.param else None,
                device=_prefix + op.device if op.device else None,
                attrs=dict(op.attrs),
            )

        union.splice(part.cluster.graph, rebuild)
        for link, transfers in part.cluster.transfers_by_link.items():
            transfers_by_link[_prefixed_resource(link, prefix)] = [
                Transfer(
                    op_id=t.op_id + offset,
                    param=prefix + t.param,
                    src=prefix + t.src,
                    dst=prefix + t.dst,
                    kind=t.kind,
                    iteration=t.iteration,
                )
                for t in transfers
            ]
    return union, transfers_by_link


def build_jobmix_graph(ir, spec: JobMixSpec) -> JobMixGraph:
    """Build every job's cluster DAG and place the mix's devices.

    ``ir`` (the conventional builder argument) is ignored: a mix names
    several models, each built at its native batch size through the
    memoized per-job builders.
    """
    from ..backends import build_comm_graph
    from ..backends.placement import place_jobs
    from ..models import build_model

    mix = JobMixGraph(spec=spec)
    shapes: dict[tuple, tuple] = {}  # (model, spec) -> (DAG, fingerprint)
    parts: list[JobPart] = []
    devices_by_job: list[list[str]] = []
    offset = 0
    for i, job in enumerate(spec.jobs):
        label = job_label(i)
        prefix = label + "/"
        shape = (job.model, job.to_spec())
        if shape not in shapes:
            jir = build_model(job.model)
            shapes[shape] = (
                build_comm_graph(jir, shape[1]), jir.structural_fingerprint()
            )
        sub, fingerprint = shapes[shape]
        n = sub.tiling.n
        parts.append(JobPart(label, sub, fingerprint, offset))
        devices_by_job.append([prefix + d for d in job.devices()])
        mix.job_ops[label] = range(offset, offset + n)
        mix.job_arrivals[label] = float(job.arrival)
        for worker, ids in sub.worker_ops.items():
            mix.worker_ops[prefix + worker] = [o + offset for o in ids]
        for cname, params in sub.chunk_params.items():
            mix.chunk_params[prefix + cname] = tuple(prefix + p for p in params)
        for cname, order in sub.chunk_order.items():
            mix.chunk_order[prefix + cname] = order
        offset += n

    mix.parts = tuple(parts)
    mix.host_map = place_jobs(
        devices_by_job,
        spec.placement,
        n_hosts=spec.n_hosts,
        slots_per_host=spec.slots_per_host,
    )
    return mix


def job_fault_plan(spec):
    """Every job's :class:`~repro.faults.FaultPlan`, scoped into its
    ``j<i>/`` namespace and merged in job order; ``None`` when no job of
    ``spec`` (any cluster spec) carries faults."""
    plan = None
    for i, job in enumerate(getattr(spec, "jobs", ()) or ()):
        jp = getattr(job, "faults", None)
        if jp is not None and jp.events:
            scoped = jp.scoped(job_label(i) + "/")
            plan = scoped if plan is None else plan + scoped
    return plan


def _shape_core(part: JobPart, platform):
    """The compiled core of one job shape on ``platform`` (memoized)."""
    from .engine import CompiledCore

    return SHAPE_CORE_MEMO.get(
        (part.fingerprint, part.cluster.spec, platform),
        lambda: CompiledCore(part.cluster, platform),
    )


def compose_core(mix: JobMixGraph, platform) -> tuple[dict, dict]:
    """The compiled-core tables of ``mix``, composed from per-shape cores.

    Returns ``(arrays, state)`` in the layout
    :meth:`~repro.sim.engine.CompiledCore._adopt` takes, equal attribute
    for attribute to compiling the spliced union DAG. Each job's core is
    placed at its op offset by :func:`repro.sim.compile.assemble`, its
    devices under the ``j<i>/`` prefix and its NICs renamed through
    ``host_map``, so devices sharing a host share NIC resources. §5.1
    parameter groups are ordered by job label *string* (``j1 < j10 <
    j2``: the union sorts them by prefixed link name), then by each
    job's own order.
    """
    parts = mix.parts
    cores = [_shape_core(part, platform) for part in parts]
    arrays, state = assemble(
        [
            (
                core,
                np.arange(part.offset, part.offset + core.n, dtype=np.int64),
                lambda dev, _prefix=part.prefix: _prefix + dev,
            )
            for part, core in zip(parts, cores)
        ],
        sum(core.n for core in cores),
        platform,
        host_map=mix.host_map,
    )
    job_of = np.repeat(
        np.arange(len(parts), dtype=np.int32), [core.n for core in cores]
    )
    arrival = np.array(
        [mix.job_arrivals[part.label] or 0.0 for part in parts], dtype=float
    )
    arrays["job_of"] = job_of
    arrays["root_times"] = arrival[job_of[np.asarray(state["roots"], dtype=np.int64)]]
    state.update(
        cluster=mix,
        chunk_op_ids=[
            i + part.offset
            for part, core in zip(parts, cores)
            for i in core.chunk_op_ids
        ],
        chunk_param_names=[
            part.prefix + name
            for part, core in zip(parts, cores)
            for name in core.chunk_param_names
        ],
        param_groups=[
            (
                tuple(part.prefix + x for x in params),
                [i + part.offset for i in op_ids],
                [None if a is None else a + part.offset for a in acts],
            )
            for part, core in sorted(zip(parts, cores), key=lambda pc: pc[0].label)
            for params, op_ids, acts in core.param_groups
        ],
        jobs=tuple(part.label for part in parts),
        job_faults=job_fault_plan(mix.spec),
    )
    return arrays, state


def prepare_jobmix_schedule(
    ir,
    spec: JobMixSpec,
    algorithm: str,
    platform,
    *,
    seed: int = 0,
) -> Schedule:
    """Compose per-job wizard passes into one namespaced schedule.

    ``algorithm='mix'`` dispatches each job to its own
    :attr:`JobSpec.algorithm`; any other name applies uniformly.
    ``'baseline'`` jobs contribute no priorities (their transfers run
    unordered, exactly as a single-job baseline does).
    """
    from ..backends import prepare_comm_schedule
    from ..models import build_model

    priorities: dict[str, int] = {}
    algorithms: list[str] = []
    passes: dict[tuple, Schedule] = {}  # one wizard call per job shape
    for i, job in enumerate(spec.jobs):
        alg = job.algorithm if algorithm == MIX_WORKLOAD else algorithm
        algorithms.append(alg)
        if alg == "baseline":
            continue
        shape = (job.model, job.to_spec(), alg)
        if shape not in passes:
            passes[shape] = prepare_comm_schedule(
                build_model(job.model), shape[1], alg, platform, seed=seed
            )
        sched = passes[shape]
        prefix = job_label(i) + "/"
        for param, rank in sched.priorities.items():
            priorities[prefix + param] = rank
    return Schedule(
        algorithm=algorithm,
        priorities=priorities,
        meta={"jobs": tuple(algorithms)},
    )

