"""Communication-backend registry: spec type -> graph builder + wizard.

Three backends ship: the parameter-server architecture
(:class:`~repro.ps.cluster.ClusterSpec`), the collective all-reduce
architecture (:class:`~repro.collectives.CollectiveSpec`), and the
multi-job co-scheduling mix (:class:`~repro.sim.jobmix.JobMixSpec`),
which places the other two under per-job namespaces on shared hosts. A
spec object fully names a cluster shape; this module dispatches on its
*type* so the simulation entry points (:mod:`repro.sim.runner`), the
sweep runner and the experiment drivers stay backend-agnostic.
Third-party backends register with :func:`register_backend`.

The module also owns the in-process memos. A :class:`Memo` is a bounded
least-recently-used map that builds on a miss and counts its hits and
misses in :data:`MEMO_COUNTERS`; every memo is keyed on exactly what its
build reads. The two reference backends (PS and all-reduce) memoize
inside their own functions:

* the **graph memo** holds assembled cluster DAGs — one
  :class:`~repro.ps.cluster.ClusterGraph` per shape, whichever backend
  built it (its block layout, see :mod:`repro.graph.tiling`) — keyed
  by (model structural fingerprint, spec). Groups that differ only in
  platform or simulation knobs describe the *same* DAG and share it.
  Consumers treat memoized graphs as immutable — the engine never
  writes to one, and callers that want to mutate one must build it
  directly (``build_cluster_graph``/``build_collective_graph``).
* the **replica memo** holds the worker replicas those builders place
  once per worker (:func:`worker_replica`), keyed on what emission
  reads, so a sweep over cluster shapes emits each replica once; each
  replica keeps its compiled block per platform.
* the **wizard memo** holds ordering-wizard passes keyed by the
  *reference projection* of a spec — the ``(workload, n_ps, sharding)``
  the reference partition is built from (§5: the wizard runs once, on
  one reference worker). A PS reference does not depend on the worker
  count; the collective reference is the PS training reference with one
  shard. One TAC trace therefore serves a whole worker-scaling sweep,
  and both backends.

A job mix memoizes nothing as a whole: it is composed from its jobs'
memoized entries (:mod:`repro.sim.jobmix`).
"""

from __future__ import annotations

import dataclasses
import inspect
from dataclasses import dataclass
from typing import Callable

from ..registry import Registry

#: hit/miss counters of every :class:`Memo` in this process (plus the
#: sweep's variant reuse, ``variant_memo_hits``), read into run telemetry
#: by :func:`repro.obs.telemetry.memo_counters`. Pool workers count their
#: own memos; the runner surfaces the driver-process view.
MEMO_COUNTERS: dict[str, int] = {}

_MISSING = object()


class Memo:
    """A named in-process memo of at most ``cap`` entries, evicting the
    least recently used; counts ``<name>_memo_hits``/``_misses`` in
    :data:`MEMO_COUNTERS`."""

    def __init__(self, name: str, cap: int) -> None:
        self.cap = cap
        self._entries: dict = {}
        self._hits, self._misses = f"{name}_memo_hits", f"{name}_memo_misses"
        MEMO_COUNTERS.setdefault(self._hits, 0)
        MEMO_COUNTERS.setdefault(self._misses, 0)

    def get(self, key, build: Callable[[], object]):
        """The value memoized under ``key``; on a miss, ``build()`` it and
        store it as the most recent entry."""
        value = self._entries.pop(key, _MISSING)
        if value is _MISSING:
            MEMO_COUNTERS[self._misses] += 1
            value = build()
            while len(self._entries) >= self.cap:
                self._entries.pop(next(iter(self._entries)))
        else:
            MEMO_COUNTERS[self._hits] += 1
        self._entries[key] = value  # (re)inserted as the most recent entry
        return value

    def keys(self) -> list:
        """Memoized keys, least recently used first."""
        return list(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()


#: assembled cluster DAGs. A DAG whose op-level graph has been read holds
#: it (tens of thousands of ops for deep models at scale), so the cap is
#: small — the memo targets back-to-back groups of one sweep, not a
#: session's history.
GRAPH_MEMO = Memo("graph", 8)

#: ordering-wizard passes (a schedule is a few KB; sweeps touch far fewer
#: distinct references).
WIZARD_MEMO = Memo("wizard", 256)

#: emitted worker replicas with their compiled blocks. A replica is one
#: worker's ops, far smaller than a cluster graph, so more are kept.
REPLICA_MEMO = Memo("replica", 32)


def worker_replica(ir, mode: str, placement, stamp, template: str):
    """The :class:`~repro.graph.tiling.Replica` a cluster builder places
    once per worker: ``ir`` emitted in worker ``mode`` under
    ``placement`` (parameter -> PS device), stamped by ``stamp`` and
    compiled on ``template``.

    Memoized in :data:`REPLICA_MEMO` on (model fingerprint, mode, stamp,
    placement, template), which fixes the replica independently of the
    cluster shape, so a sweep over worker counts, partition sizes or
    topologies emits it once. The replica carries its compiled block per
    platform, so each is also compiled once per platform."""
    from ..graph.tiling import Replica
    from ..models.emit import emit_graph

    def emit():
        emitted = emit_graph(ir, mode, placement=placement)
        return Replica(emitted.graph, emitted.output_ops, stamp, template)

    key = (
        ir.structural_fingerprint(), mode, stamp,
        tuple(placement[p.name] for p in ir.params), template,
    )
    return REPLICA_MEMO.get(key, emit)


@dataclass(frozen=True)
class CommBackend:
    """One communication architecture the simulator can execute.

    ``build_graph(ir, spec)`` assembles the one-iteration cluster DAG;
    ``prepare_schedule(ir, spec, algorithm, platform, *, seed)`` runs
    the ordering wizard. Either may memoize (see
    :class:`Memo`) on what it reads.
    """

    name: str
    spec_type: type
    build_graph: Callable
    prepare_schedule: Callable

    def describe(self) -> str:
        return f"{self.name} ({self.spec_type.__name__})"


_BACKENDS: Registry = Registry("communication backend")
_BY_SPEC_TYPE: dict[type, CommBackend] = {}
_defaults_loaded = False


def register_backend(backend: CommBackend) -> None:
    """Register a backend; later registrations replace earlier ones.

    The built-in backends are loaded first, so a third-party registration
    can never suppress (only deliberately replace) ``ps``/``allreduce``.
    """
    _ensure_defaults()
    _BACKENDS[backend.name] = backend
    _BY_SPEC_TYPE[backend.spec_type] = backend


def _reference_backend(name, spec_type, build_graph, reference_of) -> CommBackend:
    """A backend whose wizard runs on one worker's reference partition.

    ``reference_of(spec)`` projects a spec onto the ``(workload, n_ps,
    sharding)`` its reference partition is built from. Graphs memoize on
    (model fingerprint, spec) in :data:`GRAPH_MEMO`; wizard passes on
    (model fingerprint, projection, algorithm, platform, seed) in
    :data:`WIZARD_MEMO`,
    with no backend name, so backends with equal references share a
    pass. The model's structural fingerprint is a content hash of the
    full IR, so two different models never collide."""

    def build(ir, spec):
        return GRAPH_MEMO.get(
            (ir.structural_fingerprint(), spec), lambda: build_graph(ir, spec)
        )

    def prepare(ir, spec, algorithm, platform, *, seed: int = 0):
        workload, n_ps, sharding = reference = reference_of(spec)

        def wizard():
            from ..core.wizard import compute_schedule
            from ..ps.reference import build_reference_partition

            partition = build_reference_partition(
                ir, workload=workload, n_ps=n_ps, sharding=sharding
            )
            return compute_schedule(partition, algorithm, platform=platform, seed=seed)

        key = (ir.structural_fingerprint(), reference, algorithm, platform, seed)
        return WIZARD_MEMO.get(key, wizard)

    return CommBackend(
        name=name, spec_type=spec_type, build_graph=build, prepare_schedule=prepare
    )


def _ensure_defaults() -> None:
    global _defaults_loaded
    if _defaults_loaded:
        return
    _defaults_loaded = True  # set first: the registrations below re-enter
    from ..collectives import CollectiveSpec, build_collective_graph
    from ..ps.cluster import ClusterSpec, build_cluster_graph
    from ..sim.jobmix import JobMixSpec, build_jobmix_graph, prepare_jobmix_schedule

    register_backend(
        _reference_backend(
            "ps", ClusterSpec, build_cluster_graph,
            lambda spec: (spec.workload, spec.n_ps, spec.sharding),
        )
    )
    # TIC/TAC carry over unchanged: the collective window gates each
    # forward layer on its chunk's all-reduce exactly as the PS window
    # gates it on the parameter pull, so the scheduler answers the same
    # question. The collective wizard is the PS wizard on a training
    # reference with one pseudo shard (the collective wire); the engine
    # lowers its priorities onto chunks (core.schedules.chunk_ranks). The
    # reference depends only on the model, and equals the PS training
    # reference with one shard: one pass serves every cell of both.
    register_backend(
        _reference_backend(
            "allreduce", CollectiveSpec, build_collective_graph,
            lambda spec: ("training", 1, "greedy"),
        )
    )
    register_backend(
        CommBackend(
            name="jobmix",
            spec_type=JobMixSpec,
            build_graph=build_jobmix_graph,
            prepare_schedule=prepare_jobmix_schedule,
        )
    )


def backends() -> Registry:
    """Registered backends by name (built-ins loaded first)."""
    _ensure_defaults()
    return _BACKENDS


def spec_fields(spec_type: type) -> tuple[str, ...]:
    """The constructor fields a backend's spec type accepts (for error
    messages and introspection; dataclass specs report their fields,
    anything else its ``__init__`` signature)."""
    if dataclasses.is_dataclass(spec_type):
        return tuple(f.name for f in dataclasses.fields(spec_type))
    params = inspect.signature(spec_type).parameters
    return tuple(name for name in params if name != "self")


def make_spec(backend: str, **kwargs):
    """Construct a cluster spec for a communication backend by name.

    Callers build cluster shapes through this helper so scenario and
    experiment code names backends ('ps', 'allreduce', ...), not spec
    classes. Unknown backend names raise the registry's ``KeyError``
    listing the registered backends; invalid constructor arguments raise
    ``TypeError`` naming the spec type's accepted fields (instead of
    letting the raw constructor error escape without that context).
    """
    ctor = backends()[backend].spec_type
    try:
        return ctor(**kwargs)
    except TypeError as exc:
        raise TypeError(
            f"invalid arguments for backend {backend!r}: {exc}; "
            f"{ctor.__name__} accepts fields {list(spec_fields(ctor))}"
        ) from None


def backend_for_spec(spec) -> CommBackend:
    """The backend owning ``spec``'s type; raises ``TypeError`` otherwise."""
    _ensure_defaults()
    backend = _BY_SPEC_TYPE.get(type(spec))
    if backend is None:
        known = ", ".join(b.describe() for b in _BACKENDS.values())
        raise TypeError(
            f"no communication backend registered for {type(spec).__name__}; "
            f"known: {known}"
        )
    return backend


def build_comm_graph(ir, spec):
    """Assemble the cluster DAG for ``spec``, whichever backend owns it.

    The built-in backends memoize (see :data:`GRAPH_MEMO`): treat the
    returned graph as read-only.
    """
    return backend_for_spec(spec).build_graph(ir, spec)


def prepare_comm_schedule(ir, spec, algorithm: str, platform, *, seed: int = 0):
    """The ordering-wizard pass for ``spec``, whichever backend owns it.

    The built-in backends memoize (see :data:`WIZARD_MEMO`). Results are
    deterministic in the key, so reuse is exact; only the ``meta``
    wall-clock diagnostics of a reused schedule reflect the original run.
    """
    return backend_for_spec(spec).prepare_schedule(
        ir, spec, algorithm, platform, seed=seed
    )
