"""Lowering a cluster to the engine's compiled-core tables.

A core (see :class:`~repro.sim.engine.CompiledCore`) is a set of flat
arrays and small tables: the dependency CSR, resource and wire-channel
ids, platform durations, the §5.1 parameter groups and the roots. Three
routes produce them, and all three give the same tables for the same
DAG:

* :func:`compile_graph`, the **block compiler**: one walk over a
  :class:`~repro.graph.dag.Graph`'s ops in id order. It compiles the
  blocks below, and it is the reference the others are tested against.
* :func:`tile_core` compiles a single-job
  :class:`~repro.ps.cluster.ClusterGraph` (PS or all-reduce; both
  builders return that one type) from its
  :class:`~repro.graph.tiling.Tiling`: the worker replica once per
  (model, mode, placement, platform) — the replica is memoized in
  :data:`repro.backends.REPLICA_MEMO` and carries its compiled blocks —
  and the backend's glue ops as a block of their own. The cluster's
  :class:`Graph` is never spliced for it.
* :func:`repro.sim.jobmix.compose_core` composes a job mix from its
  per-shape cores.

The last two place compiled blocks with :func:`assemble`, the one
concatenation routine: each block lands at its op ids, its resources
and devices renamed, and the result is ordered exactly as the block
compiler's walk over the assembled DAG would order it.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Callable, Optional, Sequence

import numpy as np

from ..graph import OpKind, ResourceKind

#: a block to place: its compiled tables, the (ascending) global op id
#: of each of its ops, and the renaming of its logical devices.
Block = tuple[SimpleNamespace, np.ndarray, Callable[[str], str]]


def egress_tables(chan_eid: list[int], n_res: int) -> tuple[list, list, list]:
    """Round-robin tables of the wire channels: egress NIC ids in order of
    their lowest channel id, each egress's channel ids ascending, and the
    resource id -> position-in-egress map (-1 for non-egress resources).
    Channels are numbered by first transfer, so these are the reference
    orders: egress NICs by first transfer, channels by first transfer
    on their pair."""
    egress_ids: list[int] = []
    eg_chan_lists: list[list[int]] = []
    eg_pos = [-1] * n_res
    for c, eid in enumerate(chan_eid):
        pos = eg_pos[eid]
        if pos < 0:
            pos = eg_pos[eid] = len(egress_ids)
            egress_ids.append(eid)
            eg_chan_lists.append([])
        eg_chan_lists[pos].append(c)
    return egress_ids, eg_chan_lists, eg_pos


def nic_capacity(res_index: dict[str, int], platform) -> np.ndarray:
    """Concurrent capacity per resource id: one for compute engines,
    ``platform.nic_slots(host)`` for NICs."""
    capacity = np.ones(len(res_index), dtype=np.int64)
    for name, rid in res_index.items():
        if name.startswith(("nic_out:", "nic_in:")):
            capacity[rid] = platform.nic_slots(name.split(":", 1)[1])
    return capacity


def _remap(ids: np.ndarray, table: np.ndarray) -> np.ndarray:
    """``table[ids]`` where ``ids >= 0``; -1 entries stay -1."""
    out = np.full_like(ids, -1)
    hit = ids >= 0
    out[hit] = table[ids[hit]]
    return out


def _find_activation(g, transfer_op_id: int) -> Optional[int]:
    """The PS-side send-activation op feeding a param transfer (§5.1's
    hand-off point), or ``None`` when the graph has no such op."""
    for pred in g.predecessors(transfer_op_id):
        if pred.kind is OpKind.SEND and pred.attrs.get("activation_only"):
            return pred.op_id
    return None


def transfer_tables(
    transfers_by_link: dict, activation: Callable[[int], Optional[int]]
) -> dict:
    """The tables a core reads from a cluster's transfers:

    * ``chunk_op_ids``/``chunk_param_names``: collective chunk transfers
      (gated by priority rank at the channel queue, not by §5.1 sender
      counters: there is no PS-side hand-off op to gate);
    * ``param_groups``: one §5.1 counter per (link, iteration) parameter
      group, in (sorted link name, sorted iteration) order — the
      reference gate-compile order — each with its transfers' params, op
      ids and send activations (``activation(op_id)``; ``None`` is legal
      until a variant requests sender enforcement).
    """
    chunk_op_ids: list[int] = []
    chunk_param_names: list[str] = []
    for transfers in transfers_by_link.values():
        for t in transfers:
            if t.kind == "chunk":
                chunk_op_ids.append(t.op_id)
                chunk_param_names.append(t.param)
    param_groups: list[tuple[tuple[str, ...], list[int], list[Optional[int]]]] = []
    for _link, transfers in sorted(
        transfers_by_link.items(), key=lambda kv: kv[0].name
    ):
        by_iteration: dict[int, list] = {}
        for t in transfers:
            if t.kind == "param":
                by_iteration.setdefault(t.iteration, []).append(t)
        for k in sorted(by_iteration):
            group = by_iteration[k]
            param_groups.append(
                (
                    tuple(t.param for t in group),
                    [t.op_id for t in group],
                    [activation(t.op_id) for t in group],
                )
            )
    return {
        "chunk_op_ids": chunk_op_ids,
        "chunk_param_names": chunk_param_names,
        "param_groups": param_groups,
    }


def _derived(arrays: dict, state: dict, platform) -> None:
    """Fill the tables that follow from the per-op arrays and the
    resource and channel tables."""
    is_transfer = arrays["is_transfer"]
    tr_ids = np.flatnonzero(is_transfer)
    comp_ids = np.flatnonzero(~is_transfer)
    arrays.update(
        capacity=nic_capacity(state["_res_index"], platform),
        tr_ids=tr_ids,
        tr_eg=arrays["t_egress"][tr_ids],
        tr_in=arrays["t_ingress"][tr_ids],
        comp_ids=comp_ids,
        comp_res=arrays["op_res"][comp_ids],
    )
    n_res = len(state["_res_index"])
    egress_ids, eg_chan_lists, eg_pos = egress_tables(state["chan_eid"], n_res)
    q_base = state["q_base"]
    state.update(
        n_res=n_res,
        n_wire_channels=len(state["chan_eid"]),
        egress_ids=egress_ids,
        eg_chan_lists=eg_chan_lists,
        eg_pos=eg_pos,
        q_slots=q_base[-1],
        roots=np.flatnonzero(arrays["base_indeg"] == 0).tolist(),
    )


def compile_graph(cluster, platform) -> tuple[dict, dict]:
    """The block compiler: ``cluster.graph`` walked op by op.

    ``cluster`` is any surface with ``graph`` and ``transfers_by_link``
    (a tiling's blocks, or a spliced cluster or union DAG as a test
    reference); the optional ``host_map``/``job_ops``/``job_arrivals``/
    ``spec`` surfaces describe a job mix. Returns ``(arrays, state)`` in
    the layout :meth:`~repro.sim.engine.CompiledCore._adopt` takes.

    Resources get ids in order of first use walking the ops (egress
    before ingress), and ``res_first`` records that use as ``2 * op +
    (1 if ingress)``; wire channels (one per directional *logical*
    (src, dst) device pair) get ids by first transfer, recorded in
    ``chan_first``. :func:`assemble` orders placed blocks by both.
    """
    from .jobmix import job_fault_plan

    g = cluster.graph
    n = len(g)
    # ``host_map`` (job-mix placements) maps logical device names onto
    # shared physical hosts: co-located jobs then share NIC resources
    # (and their capacity) while each logical (src, dst) device pair
    # keeps its own wire channel — separate TCP connections round-
    # robining on one shared NIC. Empty/missing map = dedicated hosts.
    host_map: dict[str, str] = getattr(cluster, "host_map", None) or {}
    res_index: dict[str, int] = {}
    res_first: list[int] = []

    def rid(name: str, use: int) -> int:
        r = res_index.get(name)
        if r is None:
            r = res_index[name] = len(res_index)
            res_first.append(use)
        return r

    base_indeg = np.zeros(n, dtype=np.int32)
    succ_lists = []
    is_transfer = np.zeros(n, dtype=bool)
    op_res = np.full(n, -1, dtype=np.int64)
    t_egress = np.full(n, -1, dtype=np.int64)
    t_ingress = np.full(n, -1, dtype=np.int64)
    t_chan = np.full(n, -1, dtype=np.int64)
    base_dur = np.zeros(n)  # raw platform times (no slowdown)
    wire_base = np.zeros(n)
    lat = np.zeros(n)
    device_ops: dict[str, list[int]] = {}
    chan_index: dict[tuple[str, str], int] = {}
    chan_first: list[int] = []
    chan_eid: list[int] = []
    chan_iid: list[int] = []
    chan_sizes: list[int] = []
    for op in g:
        i = op.op_id
        base_indeg[i] = len(g.pred_ids(i))
        succ_lists.append(g.succ_ids(i))
        if op.resource is None:
            raise ValueError(f"op {op.name!r} has no resource tag")
        if op.resource.kind is ResourceKind.LINK:
            key = src, dst = tuple(op.resource.name[len("link:"):].split("->"))
            is_transfer[i] = True
            t_egress[i] = eid = rid(f"nic_out:{host_map.get(src, src)}", 2 * i)
            t_ingress[i] = iid = rid(f"nic_in:{host_map.get(dst, dst)}", 2 * i + 1)
            wire_base[i] = op.cost / platform.bandwidth_bps
            lat[i] = platform.rpc_latency_s
            c = chan_index.get(key)
            if c is None:
                c = chan_index[key] = len(chan_index)
                chan_first.append(i)
                chan_eid.append(eid)
                chan_iid.append(iid)
                chan_sizes.append(0)
            t_chan[i] = c
            chan_sizes[c] += 1
        else:
            op_res[i] = rid(op.resource.name, 2 * i)
            base_dur[i] = platform.op_time(op)
            device_ops.setdefault(op.device, []).append(i)

    succ_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([len(s) for s in succ_lists], out=succ_indptr[1:])
    succ_indices = np.fromiter(
        (s for lst in succ_lists for s in lst), dtype=np.int64,
        count=int(succ_indptr[-1]),
    )
    #: flat per-channel queue layout: channel c owns slots
    #: [q_base[c], q_base[c+1]) of a shared buffer (CSR over channels).
    q_base = [0]
    for size in chan_sizes:
        q_base.append(q_base[-1] + size)

    arrays = {
        "base_indeg": base_indeg,
        "succ_indptr": succ_indptr,
        "succ_indices": succ_indices,
        "is_transfer": is_transfer,
        "op_res": op_res,
        "t_egress": t_egress,
        "t_ingress": t_ingress,
        "base_dur": base_dur,
        "wire_base": wire_base,
        "lat": lat,
        "t_chan": t_chan,
        "is_chunk": np.zeros(n, dtype=bool),
        "res_first": np.array(res_first, dtype=np.int64),
        "chan_first": np.array(chan_first, dtype=np.int64),
    }
    state = {
        "cluster": cluster,
        "platform": platform,
        "n": n,
        "_res_index": res_index,
        "chan_eid": chan_eid,
        "chan_iid": chan_iid,
        #: logical (src, dst) device pair per channel id — the fault
        #: layer's link universe (see :mod:`repro.faults.compile`).
        "chan_devices": list(chan_index),
        "q_base": q_base,
        "device_compute_ops": device_ops,
    }
    state.update(
        transfer_tables(
            cluster.transfers_by_link, lambda t: _find_activation(g, t)
        )
    )
    arrays["is_chunk"][state["chunk_op_ids"]] = True
    _derived(arrays, state, platform)

    # --- job tags + arrival offsets (multi-job mixes) -----------------
    # ``job_ops``/``job_arrivals`` are optional cluster surfaces (set by
    # the job-mix builder): op ids per job label, and each job's arrival
    # offset in seconds. Single-job clusters leave them empty: every
    # root then releases at t=0 through the original init path.
    job_ops: dict = getattr(cluster, "job_ops", None) or {}
    job_arrivals: dict = getattr(cluster, "job_arrivals", None) or {}
    job_of = np.full(n, -1, dtype=np.int32)
    for j, ids in enumerate(job_ops.values()):
        job_of[np.asarray(list(ids), dtype=np.int64)] = j
    arrival_of = np.zeros(n)
    for label, t0 in job_arrivals.items():
        if t0:
            arrival_of[np.asarray(list(job_ops[label]), dtype=np.int64)] = float(t0)
    arrays["job_of"] = job_of
    #: release time per root (parallel to ``roots``; zeros = legacy).
    arrays["root_times"] = arrival_of[np.asarray(state["roots"], dtype=np.int64)]
    state["jobs"] = tuple(job_ops)
    # A job-mix spec may attach a FaultPlan per job, scoped into the
    # job's ``j<i>/`` namespace; variants merge it with SimConfig.faults.
    state["job_faults"] = job_fault_plan(getattr(cluster, "spec", None))
    return arrays, state


def compile_block(graph, platform) -> SimpleNamespace:
    """One block's tables (:func:`compile_graph` of a bare graph)."""
    arrays, state = compile_graph(
        SimpleNamespace(graph=graph, transfers_by_link={}), platform
    )
    return SimpleNamespace(**arrays, **state)


def assemble(
    blocks: Sequence[Block],
    n: int,
    platform,
    *,
    host_map: Optional[dict] = None,
    cross: Sequence[tuple[int, int]] = (),
) -> tuple[dict, dict]:
    """Place compiled ``blocks`` into one ``n``-op core.

    Each block's ops land at its global ids; its devices are renamed
    (NICs further through ``host_map``). ``cross`` lists the edges
    between blocks in creation order: each is appended to its source's
    successors after the source block's own, and counts toward its
    target's in-degree. Resources, wire channels and devices are ordered
    by first use, as :func:`compile_graph` walking the assembled DAG
    would number them; ``roots`` ascend. Returns the structural tables;
    the caller adds ``cluster``, the :func:`transfer_tables` and the job
    tags.
    """
    host_map = host_map or {}

    # --- resources: first use decides the id ---------------------------
    res_key: dict[str, int] = {}
    block_res: list[list[str]] = []
    for core, ids, rename in blocks:
        uses = 2 * ids[core.res_first >> 1] + (core.res_first & 1)
        names = []
        for name, use in zip(core._res_index, uses.tolist()):
            kind, dev = name.split(":", 1)
            dev = rename(dev)
            if kind != "compute":
                dev = host_map.get(dev, dev)
            name = f"{kind}:{dev}"
            names.append(name)
            if use < res_key.get(name, use + 1):
                res_key[name] = use
        block_res.append(names)
    res_index = {
        name: r for r, name in enumerate(sorted(res_key, key=res_key.__getitem__))
    }
    res_maps = [
        np.array([res_index[name] for name in names], dtype=np.int64)
        for names in block_res
    ]

    # --- wire channels: one per logical device pair, by first transfer -
    chan_key: dict[tuple[str, str], int] = {}
    chan_nics: dict[tuple[str, str], tuple[int, int]] = {}
    block_chans: list[list[tuple[str, str]]] = []
    for (core, ids, rename), rmap in zip(blocks, res_maps):
        pairs = []
        for (src, dst), first, eid, iid in zip(
            core.chan_devices, ids[core.chan_first].tolist(), core.chan_eid,
            core.chan_iid,
        ):
            pair = (rename(src), rename(dst))
            pairs.append(pair)
            if first < chan_key.get(pair, first + 1):
                chan_key[pair] = first
                chan_nics[pair] = (int(rmap[eid]), int(rmap[iid]))
        block_chans.append(pairs)
    chan_devices = sorted(chan_key, key=chan_key.__getitem__)
    chan_index = {pair: c for c, pair in enumerate(chan_devices)}
    chan_maps = [
        np.array([chan_index[pair] for pair in pairs], dtype=np.int64)
        for pairs in block_chans
    ]

    # --- per-op arrays ---------------------------------------------------
    base_indeg = np.zeros(n, dtype=np.int32)
    is_transfer = np.zeros(n, dtype=bool)
    is_chunk = np.zeros(n, dtype=bool)
    base_dur = np.zeros(n)
    wire_base = np.zeros(n)
    lat = np.zeros(n)
    op_res = np.full(n, -1, dtype=np.int64)
    t_egress = np.full(n, -1, dtype=np.int64)
    t_ingress = np.full(n, -1, dtype=np.int64)
    t_chan = np.full(n, -1, dtype=np.int64)
    n_succ = np.zeros(n, dtype=np.int64)
    chan_sizes = np.zeros(len(chan_devices), dtype=np.int64)
    devices: dict = {}
    for (core, ids, rename), rmap, cmap in zip(blocks, res_maps, chan_maps):
        base_indeg[ids] = core.base_indeg
        is_transfer[ids] = core.is_transfer
        is_chunk[ids] = core.is_chunk
        base_dur[ids] = core.base_dur
        wire_base[ids] = core.wire_base
        lat[ids] = core.lat
        op_res[ids] = _remap(core.op_res, rmap)
        t_egress[ids] = _remap(core.t_egress, rmap)
        t_ingress[ids] = _remap(core.t_ingress, rmap)
        t_chan[ids] = _remap(core.t_chan, cmap)
        n_succ[ids] = np.diff(core.succ_indptr)
        np.add.at(chan_sizes, cmap, np.diff(core.q_base))
        for dev, local in core.device_compute_ops.items():
            dev = None if dev is None else rename(dev)
            devices.setdefault(dev, []).append(ids[local])

    # --- dependency CSR: each block's successors, then cross edges ------
    cross = np.asarray(cross, dtype=np.int64).reshape(-1, 2)
    src, dst = cross[:, 0], cross[:, 1]
    base_indeg += np.bincount(dst, minlength=n).astype(np.int32)
    own = n_succ.copy()
    n_succ += np.bincount(src, minlength=n)
    succ_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(n_succ, out=succ_indptr[1:])
    succ_indices = np.empty(int(succ_indptr[-1]), dtype=np.int64)
    for core, ids, _ in blocks:
        local = core.succ_indptr
        at = np.repeat(succ_indptr[ids] - local[:-1], np.diff(local))
        succ_indices[at + np.arange(local[-1])] = ids[core.succ_indices]
    if len(src):
        order = np.argsort(src, kind="stable")
        s = src[order]
        rank = np.arange(len(s)) - np.searchsorted(s, s)
        succ_indices[succ_indptr[s] + own[s] + rank] = dst[order]

    q_base = [0]
    for size in chan_sizes.tolist():
        q_base.append(q_base[-1] + size)
    arrays = {
        "base_indeg": base_indeg,
        "succ_indptr": succ_indptr,
        "succ_indices": succ_indices,
        "is_transfer": is_transfer,
        "op_res": op_res,
        "t_egress": t_egress,
        "t_ingress": t_ingress,
        "base_dur": base_dur,
        "wire_base": wire_base,
        "lat": lat,
        "t_chan": t_chan,
        "is_chunk": is_chunk,
        "res_first": np.array(sorted(res_key.values()), dtype=np.int64),
        "chan_first": np.array(
            [chan_key[pair] for pair in chan_devices], dtype=np.int64
        ),
    }
    state = {
        "platform": platform,
        "n": n,
        "_res_index": res_index,
        "chan_eid": [chan_nics[pair][0] for pair in chan_devices],
        "chan_iid": [chan_nics[pair][1] for pair in chan_devices],
        "chan_devices": chan_devices,
        "q_base": q_base,
        "device_compute_ops": {
            dev: parts[0] if len(parts) == 1 else np.sort(np.concatenate(parts))
            for dev, parts in sorted(
                devices.items(), key=lambda kv: min(int(p[0]) for p in kv[1])
            )
        },
    }
    _derived(arrays, state, platform)
    return arrays, state


def _same(device: str) -> str:
    return device


def tile_core(cluster, platform) -> tuple[dict, dict]:
    """The core of a single-job cluster, tiled from its
    :class:`~repro.graph.tiling.Tiling`: the worker replica's block,
    compiled once per platform and kept on the (memoized) replica, placed
    at every instance's offset with its template worker renamed; the glue
    compiled as one block; the cross edges appended. Equal, table for
    table, to :func:`compile_graph` of the spliced ``cluster.graph``.
    """
    tiling = cluster.tiling
    replica = tiling.replica
    block = replica.blocks.get(platform)
    if block is None:
        block = replica.blocks[platform] = compile_block(replica.stamped(), platform)
    template = replica.template
    ids = np.arange(len(replica), dtype=np.int64)
    blocks: list[Block] = [
        (
            compile_block(tiling.glue, platform),
            np.array(tiling.glue_ids, dtype=np.int64),
            _same,
        )
    ]
    for offset, worker, _ in tiling.instances:
        blocks.append(
            (
                block,
                ids + offset,
                lambda dev, _w=worker: _w if dev == template else dev,
            )
        )
    arrays, state = assemble(blocks, tiling.n, platform, cross=tiling.cross)

    # a param transfer's hand-off point: its send-activation glue input
    activations: dict[int, int] = {}
    for src, dst in tiling.cross:
        op = tiling.glue_op(src)
        if (
            op is not None and op.kind is OpKind.SEND
            and op.attrs.get("activation_only")
            and src < activations.get(dst, src + 1)
        ):
            activations[dst] = src
    state.update(transfer_tables(cluster.transfers_by_link, activations.get))
    arrays["is_chunk"][state["chunk_op_ids"]] = True
    arrays["job_of"] = np.full(tiling.n, -1, dtype=np.int32)
    arrays["root_times"] = np.zeros(len(state["roots"]))
    state.update(cluster=cluster, jobs=(), job_faults=None)
    return arrays, state
