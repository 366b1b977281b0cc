"""Collective-communication cluster shapes.

:class:`CollectiveSpec` is the collective twin of
:class:`~repro.ps.cluster.ClusterSpec`: it names a data-parallel cluster of
W workers that synchronizes gradients with an all-reduce instead of a
parameter server. The two spec types are interchangeable everywhere a
cluster shape is consumed — :class:`~repro.sweep.spec.SimCell` grids,
:func:`~repro.sim.runner.simulate_cluster`, the sweep cache — with the
backend registry (:mod:`repro.backends`) dispatching graph assembly and
schedule preparation on the spec's type.

Two topologies are modeled (see :mod:`repro.collectives.ring` and
:mod:`repro.collectives.hierarchical`):

* ``ring`` — bandwidth-optimal ring all-reduce: reduce-scatter then
  all-gather, moving ``2(W-1)/W`` of each gradient byte per worker NIC;
* ``hierarchical`` — two-level all-reduce: intra-group reduce to a group
  leader, ring all-reduce among the leaders, intra-group broadcast (the
  node-local/inter-node split of NCCL-style hierarchies).

``partition_bytes`` is the ByteScheduler-style tensor partition/fusion
knob: gradients larger than the threshold split into multiple chunks,
and smaller adjacent gradients are always fused into one chunk. Chunks —
not raw tensors — are the unit the TIC/TAC priorities order on the wire.
The hierarchical group size is derived from ``n_workers``
(:attr:`CollectiveSpec.effective_group_size`), never set.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ps.sharding import worker_device_names

TOPOLOGIES = ("ring", "hierarchical")


@dataclass(frozen=True)
class CollectiveSpec:
    """Cluster shape for the collective (all-reduce) backend.

    Hierarchical topologies group the workers by
    :attr:`effective_group_size`, a rule of ``n_workers`` alone.
    """

    n_workers: int
    topology: str = "ring"
    partition_bytes: int = 4 * 2**20

    def __post_init__(self) -> None:
        if self.n_workers <= 0:
            raise ValueError("n_workers must be positive")
        if self.topology not in TOPOLOGIES:
            raise ValueError(f"topology must be one of {TOPOLOGIES}")
        if self.partition_bytes <= 0:
            raise ValueError("partition_bytes must be positive")

    # -- ClusterSpec-compatible surface ---------------------------------
    @property
    def workload(self) -> str:
        """Collectives synchronize gradients: always a training workload."""
        return "training"

    @property
    def n_ps(self) -> int:
        """No parameter servers in this backend (reporting compatibility)."""
        return 0

    @property
    def workers(self) -> list[str]:
        return worker_device_names(self.n_workers)

    # -- hierarchical grouping ------------------------------------------
    @property
    def effective_group_size(self) -> int:
        """Workers per hierarchical group: the largest divisor of
        ``n_workers`` that is at most 4 and leaves at least two groups
        (groups of one — a plain ring among all workers — when no such
        divisor exists)."""
        best = 1
        for g in range(2, min(4, self.n_workers) + 1):
            if self.n_workers % g == 0 and self.n_workers // g >= 2:
                best = g
        return best

    @property
    def n_groups(self) -> int:
        return self.n_workers // self.effective_group_size

    def groups(self) -> list[list[str]]:
        """Worker names grouped for the hierarchical topology; each
        group's first member is its leader."""
        g = self.effective_group_size
        workers = self.workers
        return [workers[i : i + g] for i in range(0, len(workers), g)]
