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

The module also owns the **wizard memo** (ROADMAP item): an in-process
cache of ordering-wizard passes keyed by the *reference projection* of a
spec — the fields the reference partition actually depends on. A PS
reference depends on (workload, n_ps, sharding) but not worker count; a
collective reference depends on nothing but the model. One TAC trace
therefore serves a whole worker-scaling sweep instead of being recomputed
per cell, the same way simulated cells are cached on disk.

It likewise owns the **graph memo**: an in-process cache of assembled
cluster DAGs keyed by (model structural fingerprint, spec). A sweep
group already builds its graph once (and compiles the engine's
:class:`~repro.sim.engine.CompiledCore` arrays once — see
:func:`repro.sim.runner.simulate_cell_group`), but groups that differ
only in platform or simulation knobs describe the *same* DAG; the memo
lets them share it instead of re-assembling tens of thousands of ops.
Consumers treat memoized graphs as immutable — the engine never writes
to a ClusterGraph, and callers that want to mutate one must build it
directly via their backend's ``build_graph``.
"""

from __future__ import annotations

import dataclasses
import inspect
from dataclasses import dataclass
from typing import Callable

from ..registry import Registry

#: Most entries a wizard memo holds before evicting its oldest (a
#: schedule is a few KB; sweeps touch far fewer distinct references).
_MEMO_CAP = 256

#: Most assembled cluster DAGs kept in-process. Graphs are large (tens of
#: thousands of ops for deep models at scale), so the cap is small — the
#: memo targets back-to-back groups of one sweep, not a session's history.
_GRAPH_MEMO_CAP = 8


@dataclass(frozen=True)
class CommBackend:
    """One communication architecture the simulator can execute.

    ``build_graph(ir, spec)`` assembles the one-iteration cluster DAG;
    ``prepare_schedule(ir, spec, algorithm, platform, *, trace_runs,
    seed)`` runs the ordering wizard; ``schedule_key(spec)`` projects a
    spec onto the fields its reference partition depends on (the wizard
    memo key — coarser is better, wrong is catastrophic).
    """

    name: str
    spec_type: type
    build_graph: Callable
    prepare_schedule: Callable
    schedule_key: Callable

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
    sharding)`` its reference partition is built from. The same
    projection, prefixed by the backend name, is the wizard-memo key, so
    the key holds exactly what the pass reads."""

    def prepare(ir, spec, algorithm, platform, *, trace_runs: int = 5, seed: int = 0):
        from ..core.wizard import compute_schedule
        from ..ps.reference import build_reference_partition

        workload, n_ps, sharding = reference_of(spec)
        reference = build_reference_partition(
            ir, workload=workload, n_ps=n_ps, sharding=sharding
        )
        return compute_schedule(
            reference, algorithm, platform=platform, trace_runs=trace_runs, seed=seed
        )

    return CommBackend(
        name=name,
        spec_type=spec_type,
        build_graph=build_graph,
        prepare_schedule=prepare,
        schedule_key=lambda spec: (name, *reference_of(spec)),
    )


def _ensure_defaults() -> None:
    global _defaults_loaded
    if _defaults_loaded:
        return
    _defaults_loaded = True  # set first: the registrations below re-enter
    from ..collectives import CollectiveSpec, build_collective_graph
    from ..ps.cluster import ClusterSpec, build_cluster_graph
    from ..sim.jobmix import (
        JobMixSpec,
        build_jobmix_graph,
        jobmix_schedule_key,
        prepare_jobmix_schedule,
    )

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
    # reference depends only on the model: one pass serves every cell.
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
            schedule_key=jobmix_schedule_key,
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


_graph_memo: dict[tuple, object] = {}

#: in-process memo hit/miss counters, read by :mod:`repro.obs.telemetry`
#: into run telemetry. Per-process: pool workers count their own memos
#: (the runner surfaces the driver-process view).
_memo_stats = {
    "graph_memo_hits": 0,
    "graph_memo_misses": 0,
    "wizard_memo_hits": 0,
    "wizard_memo_misses": 0,
}


def memo_stats() -> dict:
    """Snapshot of this process's graph/wizard memo hit-miss counters."""
    return dict(_memo_stats)


def build_comm_graph(ir, spec):
    """Assemble the cluster DAG for ``spec``, whichever backend owns it.

    Memoized per (model structural fingerprint, spec): two sweep groups
    over the same DAG — e.g. one cluster shape swept across platforms —
    share one assembled graph. Eviction is least-recently-used, so the
    per-job graphs every job mix reuses outlive the stream of one-off
    mixes. The returned graph must be treated as read-only; call the
    backend's ``build_graph`` directly to get a private, mutable
    instance.
    """
    backend = backend_for_spec(spec)
    key = (ir.structural_fingerprint(), spec)
    graph = _graph_memo.pop(key, None)
    if graph is None:
        _memo_stats["graph_memo_misses"] += 1
        graph = backend.build_graph(ir, spec)
        while len(_graph_memo) >= _GRAPH_MEMO_CAP:
            _graph_memo.pop(next(iter(_graph_memo)))
    else:
        _memo_stats["graph_memo_hits"] += 1
    _graph_memo[key] = graph  # (re)inserted as the most recent entry
    return graph


def graph_memo_size() -> int:
    """Assembled graphs currently memoized (diagnostics/tests)."""
    return len(_graph_memo)


def clear_graph_memo() -> None:
    """Drop all memoized cluster graphs (tests)."""
    _graph_memo.clear()


# ----------------------------------------------------------------------
# Wizard memo
# ----------------------------------------------------------------------

_schedule_memo: dict[tuple, object] = {}


def prepare_comm_schedule(
    ir,
    spec,
    algorithm: str,
    platform,
    *,
    trace_runs: int = 5,
    seed: int = 0,
):
    """Backend-dispatched, memoized ordering-wizard pass.

    The memo key combines the model's structural fingerprint (a content
    hash of the full IR — nodes, wiring, FLOPs, parameter census — so two
    different models can never collide), the backend's reference
    projection of ``spec``, and the wizard knobs. Results are
    deterministic in the key, so reuse is exact; only the ``meta``
    wall-clock diagnostics of a reused schedule reflect the original run.
    """
    backend = backend_for_spec(spec)
    key = (
        ir.structural_fingerprint(),
        backend.schedule_key(spec),
        algorithm,
        platform,
        trace_runs,
        seed,
    )
    schedule = _schedule_memo.get(key)
    if schedule is None:
        _memo_stats["wizard_memo_misses"] += 1
        schedule = backend.prepare_schedule(
            ir, spec, algorithm, platform, trace_runs=trace_runs, seed=seed
        )
        while len(_schedule_memo) >= _MEMO_CAP:
            _schedule_memo.pop(next(iter(_schedule_memo)))
        _schedule_memo[key] = schedule
    else:
        _memo_stats["wizard_memo_hits"] += 1
    return schedule


def schedule_memo_size() -> int:
    """Entries currently memoized (diagnostics/tests)."""
    return len(_schedule_memo)


def clear_schedule_memo() -> None:
    """Drop all memoized wizard passes (tests)."""
    _schedule_memo.clear()
