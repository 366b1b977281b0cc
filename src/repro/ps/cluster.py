"""The single-job cluster layout, and its parameter-server builder
(§2.2, Fig. 2).

One :class:`ClusterGraph` holds everything a single synchronous
iteration executes, resource-tagged, whichever backend built it:
:func:`build_cluster_graph` here (parameter servers) or
:func:`repro.collectives.build_collective_graph` (chunked all-reduce).
Either way it is a worker replica per worker plus the backend's glue
ops; the all-reduce builder also fills the chunk fields the engine
lowers schedule priorities onto.

The parameter-server builder places

* per worker, a model replica whose parameters enter through ``recv`` roots
  (and, in training, whose gradients exit through ``send`` leaves);
* per parameter on its PS shard, the paper's five-op PS subgraph —
  ``read`` (serve last iteration's value), per-worker ``send`` activation,
  the transfer itself, and in training per-worker gradient ``recv``
  bookkeeping, ``aggregate`` and ``update``.

A transfer is modeled as a single op occupying the directional channel
``link:src->dst`` (gRPC's one-active-transfer-per-channel semantics, §5.1);
the PS-side ``send``/``recv`` activations are zero-cost ops on the PS
compute resource that preserve the paper's DAG structure and give the
enforcement module its hand-off point.

Iteration semantics: the graph covers one barrier-to-barrier iteration.
``read`` ops have no dependency on this iteration's ``update`` (they serve
the previous iteration's value); ``update`` ops are leaves consumed by the
next iteration. The makespan of this DAG is the paper's iteration time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..backends import worker_replica
from ..graph import Graph, Op, OpKind, Resource
from ..graph.tiling import Tiling
from ..models.emit import WORKER_INFERENCE, WORKER_TRAINING
from ..models.ir import ModelIR
from ..registry import did_you_mean
from .sharding import (
    STRATEGIES,
    ps_device_names,
    shard_parameters,
    worker_device_names,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..collectives import Chunk, CollectiveSpec

WORKLOADS = ("inference", "training")


@dataclass(frozen=True)
class ClusterSpec:
    """Cluster shape: W workers, S parameter servers, workload kind.

    ``workload='inference'`` models the RL serving setup of Fig. 3 (agents
    pull parameters and run forward passes); ``'training'`` is synchronous
    SGD with gradient push and PS-side aggregation.
    """

    n_workers: int
    n_ps: int
    workload: str = "training"
    sharding: str = "greedy"

    def __post_init__(self) -> None:
        if self.n_workers <= 0 or self.n_ps <= 0:
            raise ValueError("n_workers and n_ps must be positive")
        if self.workload not in WORKLOADS:
            raise ValueError(f"workload must be one of {WORKLOADS}")
        if self.sharding not in STRATEGIES:
            raise ValueError(
                f"unknown sharding {self.sharding!r}; one of {STRATEGIES}"
                + did_you_mean(self.sharding, STRATEGIES)
            )

    @property
    def workers(self) -> list[str]:
        return worker_device_names(self.n_workers)

    @property
    def ps(self) -> list[str]:
        return ps_device_names(self.n_ps)


@dataclass(frozen=True)
class Transfer:
    """One network transfer: the unit the enforcement module orders."""

    op_id: int
    param: str
    src: str
    dst: str
    #: 'param' for PS->worker pulls (the recvs TicTac schedules), 'grad'
    #: for gradient pushes, or 'chunk' for an all-reduce chunk step.
    kind: str
    #: which unrolled iteration this transfer belongs to (§5.1's counters
    #: are per worker *per iteration*).
    iteration: int = 0


@dataclass
class ClusterGraph:
    """A resource-tagged single-job cluster DAG (one iteration by
    default; ``n_iterations > 1`` unrolls a pipelined PS window), held as
    its block layout: :attr:`tiling` places one stamped model replica per
    (worker, iteration) beside the backend's glue ops. The op-level
    :attr:`graph` is spliced only when first read (trace export,
    timelines, structural tests); the engine compiles the layout directly
    (:func:`repro.sim.compile.tile_core`). Every other field is computed
    from the layout and indexes the spliced graph's op ids."""

    spec: ClusterSpec | CollectiveSpec
    model: ModelIR
    tiling: Tiling
    #: param name -> the device serving it: its PS shard, or
    #: :data:`repro.collectives.graph.LOCAL` under all-reduce.
    placement: dict[str, str]
    #: every transfer, grouped by the link resource it occupies.
    transfers_by_link: dict[Resource, list[Transfer]] = field(default_factory=dict)
    #: op ids per worker device (for straggler accounting).
    worker_ops: dict[str, list[int]] = field(default_factory=dict)
    #: per-worker map param name -> op id delivering its value: the PS
    #: recv transfer (last iteration), or the all-reduce chunk update.
    param_recvs: dict[str, dict[str, int]] = field(default_factory=dict)
    #: op ids per unrolled iteration (for pipelined span accounting).
    iteration_ops: dict[int, list[int]] = field(default_factory=dict)
    #: all-reduce chunks (empty under PS).
    chunks: list[Chunk] = field(default_factory=list)
    #: chunk name -> member parameter names (the scheduling seam).
    chunk_params: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: chunk name -> layerwise chunk index (priority tie-break).
    chunk_order: dict[str, int] = field(default_factory=dict)
    n_iterations: int = 1

    @property
    def graph(self) -> Graph:
        """The assembled op-level DAG (spliced on first read)."""
        return self.tiling.graph

    @property
    def param_transfers(self) -> list[Transfer]:
        return [
            t
            for transfers in self.transfers_by_link.values()
            for t in transfers
            if t.kind == "param"
        ]

    def _register_transfer(self, link: Resource, transfer: Transfer) -> None:
        self.transfers_by_link.setdefault(link, []).append(transfer)


def _stamp(worker: str, prefix: str):
    """``Graph.splice`` rebuild that stamps a replica op onto ``worker``
    as ``{prefix}{worker}/{name}``: recvs occupy the PS->worker link,
    gradient sends the worker->PS link, everything else the worker's
    compute resource."""
    compute = Resource.compute(worker)
    name_prefix = f"{prefix}{worker}/"

    def rebuild(op: Op, new_id: int) -> Op:
        if op.kind is OpKind.RECV:
            resource = Resource.link(op.attrs["ps"], worker)
        elif op.kind is OpKind.SEND:
            resource = Resource.link(worker, op.attrs["ps"])
        else:
            resource = compute
        return Op(
            new_id, name_prefix + op.name, op.kind, resource, op.cost,
            op.param, worker, dict(op.attrs),
        )

    return rebuild


def build_cluster_graph(
    ir: ModelIR,
    spec: ClusterSpec,
    *,
    n_iterations: int = 1,
) -> ClusterGraph:
    """Assemble the cluster DAG for ``ir`` under ``spec``, its parameters
    placed on the PS shards by ``spec.sharding``.

    ``n_iterations=1`` (default) builds the barrier-to-barrier iteration
    used throughout the paper's measurement protocol. ``n_iterations>1``
    unrolls a pipelined window: in training, iteration k+1's ``read`` of a
    parameter depends on its iteration-k ``update`` (per-parameter
    pipelining across the barrier); in inference, iteration k+1's send
    activations to an agent wait for that agent's iteration-k output (the
    agent requests fresh parameters after acting).
    """
    if n_iterations <= 0:
        raise ValueError("n_iterations must be positive")
    placement = shard_parameters(ir.params, spec.ps, spec.sharding)

    params = ir.params
    mode = WORKER_TRAINING if spec.workload == "training" else WORKER_INFERENCE
    replica = worker_replica(ir, mode, placement, _stamp, spec.workers[0])
    t = Tiling(
        f"{ir.name}/{spec.workload}/w{spec.n_workers}xps{spec.n_ps}"
        + (f"/unrolled{n_iterations}" if n_iterations > 1 else ""),
        replica,
    )
    cluster = ClusterGraph(
        spec=spec, model=ir, tiling=t, placement=placement,
        n_iterations=n_iterations,
    )
    training = spec.workload == "training"
    size = len(replica)

    #: iteration-(k-1) update op per param (training pipelining).
    prev_update: dict[str, int] = {}
    #: iteration-(k-1) final output op per worker (inference agent loop).
    prev_output: dict[str, int] = {}
    final_local = replica.graph.op(replica.output_ops[list(ir.nodes)[-1]]).op_id
    comm_ops = [op for op in replica.graph if op.kind.is_communication]

    for k in range(n_iterations):
        prefix = f"it{k}/" if n_iterations > 1 else ""
        iteration_op_ids: list[int] = []

        # --- PS-side reads: serve the latest updated value ---------------
        read_ops: dict[str, int] = {}
        for p in params:
            ps_dev = placement[p.name]
            read_ops[p.name] = t.add_op(
                f"{prefix}{ps_dev}/{p.name}/read",
                OpKind.READ,
                [prev_update[p.name]] if p.name in prev_update else [],
                cost=0.0,
                param=p.name,
                device=ps_dev,
                resource=Resource.compute(ps_dev),
                timing_key=f"{p.name}/ps_read",
            )
            iteration_op_ids.append(read_ops[p.name])

        # --- worker replicas, stitched to the PS subgraphs ---------------
        #: per param, its gradient sends as (op id, worker).
        grad_sends: dict[str, list[tuple[int, str]]] = {p.name: [] for p in params}
        for worker in spec.workers:
            offset = t.place(worker, prefix)
            ids = range(offset, offset + size)
            cluster.worker_ops.setdefault(worker, []).extend(ids)
            recv_ids: dict[str, int] = {}
            done = 0  # replica ops already listed in iteration_op_ids
            for local in comm_ops:
                op_id = offset + local.op_id
                ps_dev = local.attrs["ps"]
                if local.kind is OpKind.RECV:
                    recv_ids[local.param] = op_id
                    cluster._register_transfer(
                        Resource.link(ps_dev, worker),
                        Transfer(op_id, local.param, ps_dev, worker, "param", k),
                    )
                    # PS-side send activation: the §5.1 hand-off point,
                    # listed right after the recv it feeds.
                    iteration_op_ids.extend(ids[done:local.op_id + 1])
                    done = local.op_id + 1
                    send_deps = [read_ops[local.param]]
                    if worker in prev_output:
                        # agent loop: next pull requested after acting
                        send_deps.append(prev_output[worker])
                    send = t.add_op(
                        f"{prefix}{ps_dev}/{local.param}/send->{worker}",
                        OpKind.SEND,
                        send_deps,
                        cost=0.0,
                        param=local.param,
                        device=ps_dev,
                        resource=Resource.compute(ps_dev),
                        timing_key=f"{local.param}/ps_send",
                        # Activation/bookkeeping op on the PS compute
                        # resource; payload time lives on the recv op.
                        activation_only=True,
                    )
                    iteration_op_ids.append(send)
                    t.add_edge(send, op_id)
                else:  # gradient push
                    grad_sends[local.param].append((op_id, worker))
                    cluster._register_transfer(
                        Resource.link(worker, ps_dev),
                        Transfer(op_id, local.param, worker, ps_dev, "grad", k),
                    )
            iteration_op_ids.extend(ids[done:])
            cluster.param_recvs[worker] = recv_ids
            if not training:
                prev_output[worker] = offset + final_local

        # --- training: gradient recv / aggregate / update per parameter --
        if training:
            for p in params:
                ps_dev = placement[p.name]
                ps_compute = Resource.compute(ps_dev)
                recv_acts = [
                    t.add_op(
                        f"{prefix}{ps_dev}/{p.name}/recv<-{worker}",
                        OpKind.RECV,
                        [send_id],
                        cost=0.0,
                        param=p.name,
                        device=ps_dev,
                        resource=ps_compute,
                        timing_key=f"{p.name}/ps_recv_grad",
                        # PS-side activation: zero-cost bookkeeping,
                        # not a second pass over the channel.
                        activation_only=True,
                    )
                    for send_id, worker in grad_sends[p.name]
                ]
                agg = t.add_op(
                    f"{prefix}{ps_dev}/{p.name}/aggregate",
                    OpKind.AGGREGATE,
                    recv_acts,
                    cost=float(spec.n_workers * p.n_elements),
                    param=p.name,
                    device=ps_dev,
                    resource=ps_compute,
                    timing_key=f"{p.name}/ps_aggregate",
                )
                update = t.add_op(
                    f"{prefix}{ps_dev}/{p.name}/update",
                    OpKind.UPDATE,
                    [agg],
                    cost=2.0 * p.n_elements,
                    param=p.name,
                    device=ps_dev,
                    resource=ps_compute,
                    timing_key=f"{p.name}/ps_update",
                )
                prev_update[p.name] = update
                iteration_op_ids.extend(recv_acts + [agg, update])
        cluster.iteration_ops[k] = iteration_op_ids

    return cluster
