"""Collective cluster-graph assembly: the all-reduce builder of the
one cluster layout, :class:`~repro.ps.cluster.ClusterGraph`.

Here the layout holds a single barrier-to-barrier iteration of
synchronous data-parallel training over W workers with no parameter
server: gradients are synchronized by a ring or hierarchical all-reduce
over chunk units (:mod:`repro.collectives.partition`), and every worker
applies the update locally.

**Window framing.** The iteration boundary sits at "backward pass
complete", mirroring the PS builder's convention that ``read`` ops serve
the *previous* iteration's value: each chunk's ``grad_ready`` root
represents the gradients produced by the previous window, available at the
barrier with no dependency inside this window. The window then contains

    grad_ready (roots) -> all-reduce chunk chains -> per-worker update
    -> parameter entry -> forward -> backward -> grad markers (leaves)

so the all-reduce of chunk c overlaps the forward/backward compute of
every layer *not* gated by c — exactly the overlap DeAR's decoupled
all-reduce exploits, and the reason chunk transfer order matters: chunks
feeding early forward layers must win the wire first. That makes the DAG
the same scheduling problem TicTac solves for PS recvs, with chunks in
place of parameter pulls (the wizard is registered with the backend in
:mod:`repro.backends`).

Resource model: transfers occupy the existing directional
``link:src->dst`` channels and per-device NIC resources of
:mod:`repro.sim.engine`; every chunk-chain step is one transfer op, so the
engine's chunked round-robin NIC sharing, per-transfer RPC latency and
priority gating apply unchanged. Per-step ring reduction FLOPs are folded
into each worker's chunk ``update`` op (cost ``(R-1)/R * E`` for a ring of
R participants, plus the SGD apply's ``2E``) to avoid doubling the op
count with micro reduce ops.
"""

from __future__ import annotations

from ..backends import worker_replica
from ..graph import Op, OpKind, Resource
from ..graph.tiling import Tiling
from ..models.emit import WORKER_TRAINING
from ..models.ir import ModelIR
from ..ps.cluster import ClusterGraph, Transfer
from .hierarchical import emit_hierarchical_allreduce
from .partition import Chunk, partition_tensors
from .ring import emit_ring_allreduce
from .spec import CollectiveSpec

#: pseudo PS device name satisfying worker emission's placement contract
#: (parameters are locally resident in the collective backend).
LOCAL = "local"


def _stamp(worker: str, prefix: str = ""):
    """``Graph.splice`` rebuild that stamps a replica op onto ``worker``'s
    compute resource as ``{prefix}{worker}/{name}``. Parameter recvs
    become zero-cost local ``READ`` entries and gradient sends zero-cost
    ``COMPUTE`` markers: the all-reduce, not a PS pull or push, moves the
    bytes."""
    compute = Resource.compute(worker)
    name_prefix = f"{prefix}{worker}/"

    def rebuild(op: Op, new_id: int) -> Op:
        kind, cost, attrs = op.kind, op.cost, dict(op.attrs)
        if kind is OpKind.RECV:
            kind, cost = OpKind.READ, 0.0
            attrs["local_param"] = True
        elif kind is OpKind.SEND:
            # the produced gradient is consumed by the *next* window's
            # all-reduce
            kind, cost = OpKind.COMPUTE, 0.0
            attrs["grad_marker"] = True
        return Op(
            new_id, name_prefix + op.name, kind, compute, cost, op.param,
            worker, attrs,
        )

    return rebuild


def build_collective_graph(ir: ModelIR, spec: CollectiveSpec) -> ClusterGraph:
    """Assemble the one-iteration collective DAG for ``ir`` under ``spec``."""
    chunks = partition_tensors(ir.params, spec.partition_bytes)
    workers = spec.workers
    placement = {p.name: LOCAL for p in ir.params}
    replica = worker_replica(ir, WORKER_TRAINING, placement, _stamp, workers[0])
    t = Tiling(
        f"{ir.name}/allreduce-{spec.topology}/w{spec.n_workers}"
        f"/p{spec.partition_bytes}",
        replica,
    )
    cluster = ClusterGraph(
        spec=spec,
        model=ir,
        tiling=t,
        placement=placement,
        chunks=chunks,
        chunk_params={c.name: c.params for c in chunks},
        chunk_order={c.name: c.index for c in chunks},
    )
    chunk_of_param = {p: c for c in chunks for p in c.params}
    worker_ops = {w: [] for w in workers}

    # --- gradient-ready roots (previous window's gradients, at barrier) --
    roots: dict[tuple[str, str], int] = {}
    for w in workers:
        compute = Resource.compute(w)
        for c in chunks:
            op_id = t.add_op(
                f"{w}/{c.name}/grad_ready",
                OpKind.READ,
                (),
                cost=0.0,
                device=w,
                resource=compute,
                timing_key=f"{c.name}/grad_ready",
                chunk_root=c.name,
            )
            roots[(w, c.name)] = op_id
            worker_ops[w].append(op_id)

    # --- all-reduce chain per chunk --------------------------------------
    def make_add_transfer(chunk: Chunk):
        def add_transfer(name, src, dst, nbytes, deps) -> int:
            link = Resource.link(src, dst)
            op_id = t.add_op(
                name,
                OpKind.SEND,
                deps,
                cost=float(nbytes),
                param=chunk.name,
                device=src,
                resource=link,
                timing_key=name.split("/", 1)[1],
                chunk=chunk.name,
            )
            cluster._register_transfer(
                link, Transfer(op_id, chunk.name, src, dst, "chunk", 0)
            )
            worker_ops[src].append(op_id)
            return op_id

        return add_transfer

    def add_compute(name, device, flops, deps) -> int:
        op_id = t.add_op(
            name,
            OpKind.AGGREGATE,
            deps,
            cost=float(flops),
            device=device,
            resource=Resource.compute(device),
            timing_key=name.split("/", 1)[1],
        )
        worker_ops[device].append(op_id)
        return op_id

    update_ids: dict[tuple[str, str], int] = {}
    for c in chunks:
        chunk_roots = {w: roots[(w, c.name)] for w in workers}
        if spec.topology == "ring":
            finish = emit_ring_allreduce(
                workers, c.name, float(c.nbytes), chunk_roots,
                make_add_transfer(c),
            )
            # every worker reduced W-1 incoming segments of E/W elements
            reduce_share = {
                w: (spec.n_workers - 1) / spec.n_workers * c.n_elements
                for w in workers
            }
        else:
            groups = spec.groups()
            finish = emit_hierarchical_allreduce(
                groups, c.name, float(c.nbytes), c.n_elements, chunk_roots,
                make_add_transfer(c), add_compute,
            )
            # leaders reduced around the inter-group ring; members only
            # apply (group sums are costed by the group_reduce ops).
            L = len(groups)
            reduce_share = {w: 0.0 for w in workers}
            for group in groups:
                reduce_share[group[0]] = (L - 1) / L * c.n_elements
        for w in workers:
            op_id = t.add_op(
                f"{w}/{c.name}/update",
                OpKind.UPDATE,
                [finish[w]],
                cost=2.0 * c.n_elements + reduce_share[w],
                device=w,
                resource=Resource.compute(w),
                timing_key=f"{c.name}/update",
            )
            update_ids[(w, c.name)] = op_id
            worker_ops[w].append(op_id)

    # --- worker replicas, gated by the chunk updates ---------------------
    param_entries = [op for op in replica.graph if op.kind is OpKind.RECV]
    size = len(replica)
    for w in workers:
        offset = t.place(w)
        worker_ops[w].extend(range(offset, offset + size))
        recvs: dict[str, int] = {}
        for local in param_entries:
            # Parameter entry: locally resident, served once this
            # window's all-reduce has updated it.
            update_id = update_ids[(w, chunk_of_param[local.param].name)]
            t.add_edge(update_id, offset + local.op_id)
            recvs[local.param] = update_id
        cluster.param_recvs[w] = recvs

    cluster.worker_ops = worker_ops
    cluster.iteration_ops[0] = list(range(t.n))
    return cluster
