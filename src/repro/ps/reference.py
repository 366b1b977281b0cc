"""Reference worker partition construction (§4's algorithm input).

TIC and TAC run offline on a *single* worker's partitioned graph (the
"reference worker"); the resulting priorities are then applied at every
worker, which is exactly what removes cross-worker order divergence and
stragglers. This module builds that reference partition without paying for
a full cluster assembly.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..graph import Graph, PartitionedGraph, assign_worker_resources
from ..models.emit import (
    WORKER_INFERENCE,
    WORKER_TRAINING,
    EmitResult,
    emit_graph,
)
from ..models.ir import ModelIR
from .sharding import ps_device_names, shard_parameters


@dataclass
class ReferencePartition:
    """A single worker's partitioned graph plus its emission indexes."""

    graph: Graph
    emit: EmitResult
    partition: PartitionedGraph
    placement: dict[str, str]

    @property
    def recv_params(self) -> list[str]:
        """Parameter names in recv-op order (the schedule's domain)."""
        return [op.param for op in self.graph.recv_ops()]


def build_reference_partition(
    ir: ModelIR,
    *,
    workload: str = "training",
    n_ps: int = 1,
    sharding: str = "greedy",
) -> ReferencePartition:
    """Emit and resource-tag one worker replica of ``ir`` as ``worker:0``,
    its parameters placed on ``n_ps`` shards by ``sharding``.

    The partition sees one link per direction per PS shard, matching what
    that worker observes inside a full cluster.
    """
    placement = shard_parameters(ir.params, ps_device_names(n_ps), sharding)
    mode = WORKER_TRAINING if workload == "training" else WORKER_INFERENCE
    result = emit_graph(ir, mode, placement=placement)
    graph = assign_worker_resources(
        result.graph, "worker:0", sorted(set(placement.values()))
    )
    graph.validate()
    return ReferencePartition(
        graph=graph,
        emit=result,
        partition=PartitionedGraph(graph),
        placement=placement,
    )
