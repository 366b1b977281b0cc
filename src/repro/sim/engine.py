"""Discrete-event execution engine (the TensorFlow-runtime stand-in).

Executes one cluster-iteration DAG over explicit resources:

* one **compute resource** per device (worker or PS) executing one op at a
  time, picking from its ready queue per the §3.1 rule — lowest priority
  number first, uniformly random among ties and unprioritized ops;
* one **egress NIC** per device and one **ingress NIC** per device. Every
  worker↔PS pair has a directional *channel* (gRPC: one channel per pair);
  a channel's transfers are serialized in hand-off order, and a NIC shares
  its bandwidth across its channels the way a real NIC shares across TCP
  connections — modeled by serving transfers in fixed-size **chunks**,
  round-robin over channels, each chunk occupying the source egress and
  destination ingress NICs exclusively for its wire time. A transfer
  completes one RPC latency after its last chunk.

Transfer ordering follows the configured enforcement mode (see
:mod:`repro.sim.config`): the paper's sender-side counters gate each
parameter transfer's *hand-off* (the zero-cost PS ``send`` activation op),
so the channel still pipelines; ``dag`` mode holds each transfer until its
priority predecessor has *completed* (the §5.1 strawman, which forfeits
pipelining and pays one RPC latency per transfer); ``ready_queue`` applies
priorities at the channel queue; ``none`` ignores priorities.

The engine is deterministic given (cluster, platform, schedule, config,
iteration index).

**Compile-once / run-many split.** Compilation is two-tier:

* :class:`CompiledCore` lowers ``(cluster, platform)`` to immutable flat
  arrays — the dependency CSR, resource/capacity tables, per-transfer
  integer *channel ids* (one id per directional (egress, ingress) NIC
  pair), oracle durations, and the per-(link, iteration) parameter-group
  structure the §5.1 counters operate on. It is independent of any
  :class:`~repro.core.schedules.Schedule` or :class:`SimConfig`, so one
  core serves every algorithm/config variant of a cell group.
* :class:`SimVariant` binds a core to one ``(schedule, config)`` pair:
  dense gate/priority arrays, slowdown-scaled durations, jitter sigma.
  Variant compilation touches only O(n) array fills — no graph traversal.

**Multi-job mixes.** A core of a job mix (see :mod:`repro.sim.jobmix`)
is composed from per-shape compiled blocks rather than compiled from a
union DAG, and carries job tags (``jobs``/``job_of``) and per-root
release times (``root_times``): roots of a job with a non-zero arrival
offset enter the event loop through deferred code-3 heap events instead
of the t=0 init path, and a placement's ``host_map`` lets co-located
jobs share NIC resources while keeping per-job wire channels. Single-job
clusters leave all of this empty and execute byte-identically to the
pre-mix engine.

The hot loop itself is array-native:
flat per-channel queues with head/tail cursors instead of ``list.pop(0)``,
eligible-set bookkeeping that avoids rescanning ready queues, and a
:meth:`SimVariant.run_iterations` batch API that amortizes per-iteration
setup (jitter factors for a whole batch are drawn as one matrix). The
rewrite is bit-exact: the RNG stream per ``(seed, iteration)`` and every
floating-point operation order are preserved from the reference
implementation (see ``tests/sim/test_engine_golden.py``).

**Kernel seam.** The event loop exists in two interchangeable,
bit-exact implementations selected by ``SimConfig.kernel`` /
``REPRO_ENGINE_KERNEL``: the tuned pure-Python loop in this module
(:meth:`SimVariant._execute`, always available) and the numba
``@njit(cache=True)`` array kernel in :mod:`repro.sim.kernel`
(:meth:`SimVariant._execute_kernel`; optional dependency, auto-detected).
``tests/sim/test_kernel_parity.py`` pins them against each other and the
golden matrix, so the kernel choice is observable only in wall time.
"""

from __future__ import annotations

import difflib
import heapq
from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.schedules import Schedule, chunk_ranks
from ..graph import OpKind, ResourceKind
from ..obs.events import TraceEvents
from ..ps.cluster import ClusterGraph
from ..timing import Platform
from . import kernel as _kernel
from .config import SimConfig
from .jobmix import JobMixGraph, compose_core, job_fault_plan

#: Revision of the engine's compiled-array layout / numerical contract.
#: Folded into the sweep cache key (see :mod:`repro.sweep.fingerprint`):
#: bump it whenever the engine's numbers are *intended* to change, so
#: cached cells simulated by an older engine can never be served as hits.
ENGINE_REV = 3

# Event codes (heap entries are (time, seq, code, op_id)).
_COMPUTE_DONE = 0
_TRANSFER_DONE = 1
_CHUNK_DONE = 2
#: deferred root release: a job-mix root op arriving at its job's offset
#: (offset-zero roots keep the direct make_ready init path, bit-exact
#: with the single-job engine).
_ROOT_ARRIVAL = 3


@dataclass
class IterationRecord:
    """Raw outcome of one simulated iteration."""

    makespan: float
    start: np.ndarray
    end: np.ndarray
    #: dedicated-resource duration of each op (oracle-style time: compute
    #: time, or wire+latency for transfers) — the Time(op) of Eq. 1-3.
    dedicated: np.ndarray
    #: count of param transfers that hit the wire out of priority order
    #: (the residual gRPC reordering the paper measured at 0.4-0.5%).
    out_of_order_handoffs: int = 0
    #: raw per-op event streams when ``SimConfig.trace`` is on (see
    #: :mod:`repro.obs`), ``None`` otherwise. Tracing is observational:
    #: every other field is bit-identical with tracing on or off.
    trace: Optional[TraceEvents] = None


def _compute_fault_end(t: float, work: float, windows) -> float:
    """Absolute finish time of ``work`` seconds of compute started at
    ``t`` under sorted disjoint ``(w0, w1, rate)`` fault windows, where
    ``rate`` is the fraction of nominal speed inside the window and
    ``rate == 0`` stalls (work resumes where it stopped at window end).

    KEEP IN SYNC with :func:`repro.sim.kernel._compute_fault_end`: the
    two kernels stay bit-exact only because both walk the windows with
    this exact floating-point operation order.
    """
    cur = t
    rem = work
    for w0, w1, rate in windows:
        if w1 <= cur:
            continue
        if w0 > cur:
            gap = w0 - cur
            if rem <= gap:
                return cur + rem
            rem -= gap
            cur = w0
        if rate <= 0.0:
            cur = w1
            continue
        cap = (w1 - cur) * rate
        if rem <= cap:
            return cur + rem / rate
        rem -= cap
        cur = w1
    return cur + rem


def _chunk_fault_end(t: float, work: float, windows) -> float:
    """Like :func:`_compute_fault_end` for one wire chunk, except a
    zero-rate (outage) window *loses* the in-flight chunk: transmission
    restarts from the full chunk at window end (host failure / dead-link
    semantics — the RPC retransmits, it does not resume mid-chunk).
    KEEP IN SYNC with :func:`repro.sim.kernel._chunk_fault_end`."""
    cur = t
    rem = work
    for w0, w1, rate in windows:
        if w1 <= cur:
            continue
        if w0 > cur:
            gap = w0 - cur
            if rem <= gap:
                return cur + rem
            rem -= gap
            cur = w0
        if rate <= 0.0:
            cur = w1
            rem = work
            continue
        cap = (w1 - cur) * rate
        if rem <= cap:
            return cur + rem / rate
        rem -= cap
        cur = w1
    return cur + rem


#: raw PCG64 words the python loop pulls per refill of its RNG stream.
_RAW_BLOCK = 256


def _raw_stream(bit_generator):
    """The python loop's two RNG consumers over one raw PCG64 stream.

    Returns ``(random, integers)`` closures, bit-exact with the
    ``Generator.random()`` / ``Generator.integers(total)`` calls of a
    ``Generator`` on ``bit_generator`` — the same consumption model the
    array kernel implements (see :mod:`repro.sim.kernel`):

    * ``random()`` takes one raw word: ``(u64 >> 11) * 2**-53``;
    * ``integers(total)`` (``2 <= total < 2**32``) splits raw words
      low half first into uint32s (the PCG64 ``has_uint32`` buffer) and
      applies numpy's 32-bit Lemire rejection.

    Words are pulled ``_RAW_BLOCK`` at a time, each block continuing the
    stream, so the block size never changes a draw.
    """
    random_raw = bit_generator.random_raw
    words: list[int] = []
    pos = 0
    half = -1  # stashed high uint32 of the last split word, -1 when none
    inv53 = 2.0 ** -53

    def random() -> float:
        nonlocal words, pos
        if pos == len(words):
            words = random_raw(_RAW_BLOCK).tolist()
            pos = 0
        w = words[pos]
        pos += 1
        return (w >> 11) * inv53

    def integers(total: int) -> int:
        nonlocal words, pos, half
        while True:
            if half >= 0:
                u = half
                half = -1
            else:
                if pos == len(words):
                    words = random_raw(_RAW_BLOCK).tolist()
                    pos = 0
                w = words[pos]
                pos += 1
                u = w & 0xFFFFFFFF
                half = w >> 32
            m = u * total
            low = m & 0xFFFFFFFF
            # accept unless low32(m) < (2**32 - total) % total; the
            # first test skips the modulo on almost every draw
            if low >= total or low >= (0x100000000 - total) % total:
                return m >> 32

    return random, integers


def _find_activation(g, transfer_op_id: int) -> Optional[int]:
    """The PS-side send-activation op feeding a param transfer (§5.1's
    hand-off point), or ``None`` when the graph has no such op."""
    for pred in g.predecessors(transfer_op_id):
        if pred.kind is OpKind.SEND and pred.attrs.get("activation_only"):
            return pred.op_id
    return None


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


def nic_capacity(res_index: dict[str, int], platform: Platform) -> np.ndarray:
    """Concurrent capacity per resource id: one for compute engines,
    ``platform.nic_slots(host)`` for NICs."""
    capacity = np.ones(len(res_index), dtype=np.int64)
    for name, rid in res_index.items():
        if name.startswith(("nic_out:", "nic_in:")):
            capacity[rid] = platform.nic_slots(name.split(":", 1)[1])
    return capacity


class CompiledCore:
    """``(cluster, platform)`` lowered to immutable flat arrays.

    ``cluster`` is either a PS :class:`~repro.ps.cluster.ClusterGraph` or a
    collective :class:`~repro.collectives.CollectiveGraph` — the engine
    only consumes their shared surface (``graph``, ``transfers_by_link``,
    ``worker_ops``) plus, for collective graphs, the chunk metadata that
    lowers schedule priorities onto chunk transfer ops. A
    :class:`~repro.sim.jobmix.JobMixGraph` is composed from its jobs'
    per-shape cores (:func:`~repro.sim.jobmix.compose_core`); the
    optional ``host_map``/``job_ops``/``job_arrivals`` surfaces of the
    traversal compile describe the same mix as a spliced union DAG.

    Everything here is independent of :class:`Schedule` and
    :class:`SimConfig`; bind those with :class:`SimVariant`. The arrays are
    treated as frozen — variants and iterations never mutate them — so one
    core can back any number of variants.
    """

    def __init__(self, cluster: ClusterGraph, platform: Platform) -> None:
        if isinstance(cluster, JobMixGraph):
            # a job mix never walks its union DAG: its core is composed
            # from per-shape compiled blocks (see repro.sim.jobmix)
            self._adopt(*compose_core(cluster, platform))
            return
        self.cluster = cluster
        self.platform = platform
        g = cluster.graph
        n = self.n = len(g)

        # --- dependency structure -------------------------------------
        self.base_indeg = np.array([g.in_degree(i) for i in range(n)], dtype=np.int32)
        succ_lists = [g.succ_ids(i) for i in range(n)]
        self.succ_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum([len(s) for s in succ_lists], out=self.succ_indptr[1:])
        self.succ_indices = (
            np.fromiter((s for lst in succ_lists for s in lst), dtype=np.int64)
            if self.succ_indptr[-1]
            else np.zeros(0, dtype=np.int64)
        )

        # --- resources --------------------------------------------------
        # ``host_map`` (job-mix placements) maps logical device names onto
        # shared physical hosts: co-located jobs then share NIC resources
        # (and their capacity) while each logical (src, dst) device pair
        # keeps its own wire channel — separate TCP connections round-
        # robining on one shared NIC. Empty/missing map = dedicated hosts.
        host_map: dict[str, str] = getattr(cluster, "host_map", None) or {}
        self._res_index: dict[str, int] = {}
        self.is_transfer = np.zeros(n, dtype=bool)
        self.op_res = np.full(n, -1, dtype=np.int64)  # compute ops
        self.t_egress = np.full(n, -1, dtype=np.int64)
        self.t_ingress = np.full(n, -1, dtype=np.int64)
        self.base_dur = np.zeros(n)  # raw platform times (no slowdown)
        self.wire_base = np.zeros(n)
        self.lat = np.zeros(n)
        device_ops: dict[str, list[int]] = {}
        tr_pair: dict[int, tuple[str, str]] = {}
        for op in g:
            if op.resource is None:
                raise ValueError(f"op {op.name!r} has no resource tag")
            if op.resource.kind is ResourceKind.LINK:
                src, dst = op.resource.name[len("link:"):].split("->")
                tr_pair[op.op_id] = (src, dst)
                self.is_transfer[op.op_id] = True
                self.t_egress[op.op_id] = self._rid(
                    f"nic_out:{host_map.get(src, src)}"
                )
                self.t_ingress[op.op_id] = self._rid(
                    f"nic_in:{host_map.get(dst, dst)}"
                )
                self.wire_base[op.op_id] = op.cost / platform.bandwidth_bps
                self.lat[op.op_id] = platform.rpc_latency_s
            else:
                self.op_res[op.op_id] = self._rid(op.resource.name)
                self.base_dur[op.op_id] = platform.op_time(op)
                device_ops.setdefault(op.device, []).append(op.op_id)
        self.n_res = len(self._res_index)
        #: compute op ids per device (slowdown lowering; transfers excluded).
        self.device_compute_ops = {
            dev: np.array(ids, dtype=np.int64) for dev, ids in device_ops.items()
        }

        # --- wire channels ----------------------------------------------
        # One integer channel id per directional *logical* (src, dst)
        # device pair, numbered by first appearance in op-id order. With
        # dedicated hosts the logical pair and the (egress, ingress) NIC
        # pair are in bijection, so the numbering is identical to the
        # reference engine's NIC-pair keying; under a shared-host
        # placement, co-located jobs keep distinct channels (distinct TCP
        # connections) on the shared NICs. ``egress_ids``/``eg_chan_lists``
        # preserve the reference round-robin orders: egress NICs by first
        # transfer, channels within an egress by first transfer on that
        # pair.
        chan_index: dict[tuple[str, str], int] = {}
        self.t_chan = np.full(n, -1, dtype=np.int64)
        chan_eid: list[int] = []
        chan_iid: list[int] = []
        chan_devices: list[tuple[str, str]] = []
        chan_sizes: list[int] = []
        for op_id in np.flatnonzero(self.is_transfer):
            op_id = int(op_id)
            key = tr_pair[op_id]
            c = chan_index.get(key)
            if c is None:
                c = chan_index[key] = len(chan_index)
                chan_eid.append(int(self.t_egress[op_id]))
                chan_iid.append(int(self.t_ingress[op_id]))
                chan_devices.append(key)
                chan_sizes.append(0)
            self.t_chan[op_id] = c
            chan_sizes[c] += 1
        self.n_wire_channels = len(chan_index)
        self.chan_eid = chan_eid
        self.chan_iid = chan_iid
        #: logical (src, dst) device pair per channel id — the fault
        #: layer's link universe (see :mod:`repro.faults.compile`).
        self.chan_devices = chan_devices
        #: ``eg_pos``: resource id -> position in ``egress_ids`` (-1 for
        #: non-egress).
        self.egress_ids, self.eg_chan_lists, self.eg_pos = egress_tables(
            chan_eid, self.n_res
        )
        #: flat per-channel queue layout: channel c owns slots
        #: [q_base[c], q_base[c+1]) of a shared buffer (CSR over channels).
        self.q_base = [0] * (self.n_wire_channels + 1)
        for c, size in enumerate(chan_sizes):
            self.q_base[c + 1] = self.q_base[c] + size
        self.q_slots = self.q_base[-1]

        #: collective chunk transfers (reduce-scatter/all-gather steps);
        #: gated by priority rank at the channel queue, not by §5.1
        #: sender counters (there is no PS-side hand-off op to gate).
        self.is_chunk = np.zeros(n, dtype=bool)
        chunk_op_ids: list[int] = []
        chunk_param_names: list[str] = []
        for transfers in cluster.transfers_by_link.values():
            for t in transfers:
                if t.kind == "chunk":
                    self.is_chunk[t.op_id] = True
                    chunk_op_ids.append(t.op_id)
                    chunk_param_names.append(t.param)
        self.chunk_op_ids = chunk_op_ids
        self.chunk_param_names = chunk_param_names

        #: concurrent-capacity per resource: compute engines run one op at
        #: a time; a NIC sustains platform.nic_slots(device) full-rate
        #: connections (PS NICs are fatter than worker NICs in envG).
        self.capacity = nic_capacity(self._res_index, platform)

        # --- §5.1 counter-channel structure -----------------------------
        # One counter per (link, iteration) parameter group, in (sorted
        # link name, sorted iteration) order — the reference gate-compile
        # order. Schedules bind ranks onto these groups per variant.
        # ``None`` activation ids are legal until a variant requests
        # sender enforcement.
        self.param_groups: list[tuple[tuple[str, ...], list[int], list[Optional[int]]]] = []
        for _link, transfers in sorted(
            cluster.transfers_by_link.items(), key=lambda kv: kv[0].name
        ):
            by_iteration: dict[int, list] = {}
            for t in transfers:
                if t.kind == "param":
                    by_iteration.setdefault(t.iteration, []).append(t)
            for k in sorted(by_iteration):
                group = by_iteration[k]
                self.param_groups.append(
                    (
                        tuple(t.param for t in group),
                        [t.op_id for t in group],
                        [_find_activation(g, t.op_id) for t in group],
                    )
                )

        # --- root ops (in-degree zero, ascending op id) ------------------
        self.roots = [int(i) for i in np.flatnonzero(self.base_indeg == 0)]

        # --- job tags + arrival offsets (multi-job mixes) -----------------
        # ``job_ops``/``job_arrivals`` are optional cluster surfaces (set
        # by the job-mix builder): op ids per job label, and each job's
        # arrival offset in seconds. Single-job clusters leave them empty:
        # every root then releases at t=0 through the original init path.
        job_ops: dict = getattr(cluster, "job_ops", None) or {}
        job_arrivals: dict = getattr(cluster, "job_arrivals", None) or {}
        self.jobs = tuple(job_ops)
        self.job_of = np.full(n, -1, dtype=np.int32)
        for j, ids in enumerate(job_ops.values()):
            self.job_of[np.asarray(list(ids), dtype=np.int64)] = j
        arrival_of = np.zeros(n)
        for label, t0 in job_arrivals.items():
            if t0:
                ids = np.asarray(list(job_ops[label]), dtype=np.int64)
                arrival_of[ids] = float(t0)
        #: release time per root (parallel to ``roots``; zeros = legacy).
        self.root_times = arrival_of[np.asarray(self.roots, dtype=np.int64)] \
            if self.roots else np.zeros(0)

        # --- per-job fault scoping --------------------------------------
        # A job-mix spec may attach a FaultPlan per job, scoped into the
        # job's ``j<i>/`` namespace. Variants merge this with
        # SimConfig.faults when compiling fault windows.
        self.job_faults = job_fault_plan(getattr(cluster, "spec", None))

        # --- resource_loads index arrays ---------------------------------
        self.tr_ids = np.flatnonzero(self.is_transfer)
        self.tr_eg = self.t_egress[self.tr_ids]
        self.tr_in = self.t_ingress[self.tr_ids]
        self.comp_ids = np.flatnonzero(~self.is_transfer)
        self.comp_res = self.op_res[self.comp_ids]

        self._build_mirrors()

    def _adopt(self, arrays: dict, state: dict) -> None:
        for name, arr in arrays.items():
            setattr(self, name, arr)
        for name, value in state.items():
            setattr(self, name, value)
        self.device_compute_ops = {
            dev: np.asarray(ids, dtype=np.int64)
            for dev, ids in self.device_compute_ops.items()
        }
        self._build_mirrors()

    def _build_mirrors(self) -> None:
        # --- python-native mirrors for the event loop --------------------
        # Scalar indexing of numpy arrays costs ~10x a list index in the
        # interpreter; the hot loop reads these instead.
        n = self.n
        self.base_indeg_list = self.base_indeg.tolist()
        self.succ_indptr_list = self.succ_indptr.tolist()
        self.succ_indices_list = self.succ_indices.tolist()
        #: per-op successor id lists (CSR unpacked once: the succ walk is
        #: the single most-executed statement of the event loop).
        self.succ_of = [
            self.succ_indices_list[self.succ_indptr_list[i]:self.succ_indptr_list[i + 1]]
            for i in range(n)
        ]
        self.is_transfer_list = self.is_transfer.tolist()
        self.is_chunk_list = self.is_chunk.tolist()
        self.op_res_list = self.op_res.tolist()
        self.t_egress_list = self.t_egress.tolist()
        self.t_ingress_list = self.t_ingress.tolist()
        self.t_chan_list = self.t_chan.tolist()
        self.lat_list = self.lat.tolist()
        self.capacity_list = self.capacity.tolist()
        self.root_times_list = self.root_times.tolist()

    # ------------------------------------------------------------------
    def _rid(self, name: str) -> int:
        rid = self._res_index.get(name)
        if rid is None:
            rid = self._res_index[name] = len(self._res_index)
        return rid

    def resource_names(self) -> list[str]:
        """Resource names in id order (compute + NIC resources)."""
        return [name for name, _ in sorted(self._res_index.items(), key=lambda kv: kv[1])]


class SimVariant:
    """One ``(schedule, config)`` binding of a :class:`CompiledCore`.

    Holds everything schedule- or config-dependent: dense gate/priority
    arrays, slowdown-scaled durations, the wire chunk quantum and jitter
    sigma. Construction is O(n) array fills — the expensive graph
    traversal lives in the shared core, so a sweep's variants (algorithms,
    enforcement modes, seeds, iteration counts) compile in microseconds.

    Each iteration is fully deterministic in ``(config.seed, iteration)``
    and never mutates the core, so any number of variants can share one.
    """

    def __init__(
        self,
        core: CompiledCore,
        schedule: Optional[Schedule] = None,
        config: Optional[SimConfig] = None,
    ) -> None:
        self.core = core
        self.schedule = schedule if schedule is not None else Schedule("baseline")
        self.config = config or SimConfig()
        n = core.n

        self.chunk_wire = self.config.chunk_bytes / core.platform.bandwidth_bps

        # --- enforcement gates & priorities ----------------------------
        self.handoff_gate: dict[int, tuple[int, int]] = {}  # activation op -> (ch, rank)
        self.dag_gate: dict[int, tuple[int, int]] = {}  # transfer op -> (ch, rank)
        self.prio: dict[int, int] = {}  # transfer op -> priority rank
        self.n_channels = 0
        if not self.schedule.is_empty and self.config.enforcement != "none":
            self._compile_gates()

        # Dense mirrors of the gate dicts (-1 = ungated/unprioritized).
        self._hg_ch = [-1] * n
        self._hg_rank = [0] * n
        for op, (ch, rank) in self.handoff_gate.items():
            self._hg_ch[op] = ch
            self._hg_rank[op] = rank
        self._dg_ch = [-1] * n
        self._dg_rank = [0] * n
        for op, (ch, rank) in self.dag_gate.items():
            self._dg_ch[op] = ch
            self._dg_rank[op] = rank
        self._prio_arr = [-1] * n
        for op, rank in self.prio.items():
            self._prio_arr[op] = rank

        # Per counter-channel: the compute resource its activations queue
        # on, its group size, and the reverse map resource -> channels.
        # §5.1 eligibility ("rank == counter") is then O(channels-at-
        # resource) instead of an O(queue) rescan per dispatch.
        self._chan_res = [-1] * self.n_channels
        self._chan_size = [0] * self.n_channels
        self._res_channels: list[list[int]] = [[] for _ in range(core.n_res)]
        if self.handoff_gate:
            op_res = core.op_res_list
            for op, (ch, rank) in self.handoff_gate.items():
                rid = op_res[op]
                if self._chan_res[ch] < 0:
                    self._chan_res[ch] = rid
                    self._res_channels[rid].append(ch)
                elif self._chan_res[ch] != rid:  # pragma: no cover - §5.1 invariant
                    raise ValueError(
                        "send activations of one channel span multiple resources"
                    )
                if rank + 1 > self._chan_size[ch]:
                    self._chan_size[ch] = rank + 1

        self._jitter_sigma = (
            core.platform.jitter_sigma
            if self.config.jitter_sigma is None
            else self.config.jitter_sigma
        )

        # Event-loop kernel seam (ISSUE 4): 'python' keeps the loop in
        # this module; 'numba'/'portable' route through the array kernel
        # in repro.sim.kernel. All are bit-exact (golden + parity suites).
        self.kernel = _kernel.resolve(self.config.kernel)
        self._kernel_loop = _kernel.loop_for(self.kernel)

        # Static per-op slowdown multipliers (compute ops of slow devices).
        self.slowdown = np.ones(n)
        for device, factor in self.config.device_slowdown:
            ids = core.device_compute_ops.get(device)
            if ids is None:
                known = sorted(
                    d for d in core.device_compute_ops if d is not None
                )
                hints = difflib.get_close_matches(device, known, n=1)
                msg = (
                    f"device_slowdown names unknown device {device!r}; "
                    f"known devices: {known}"
                )
                if hints:
                    msg += f" — did you mean {hints[0]!r}?"
                raise ValueError(msg)
            self.slowdown[ids] = factor
        self.base_dur = core.base_dur * self.slowdown

        # --- deterministic fault windows (ISSUE 9) ----------------------
        # Merge the config plan with any per-job plans scoped onto the
        # core, then lower to per-resource / per-channel window lists.
        # All-None lists mean the event loops execute the literal
        # fault-free expressions (byte-identical to no faults layer).
        plan = getattr(core, "job_faults", None)
        cfg_plan = self.config.faults
        if cfg_plan is not None and not cfg_plan.is_empty:
            plan = cfg_plan if plan is None else plan + cfg_plan
        if plan is not None and not plan.is_empty:
            from ..faults.compile import compile_fault_plan

            self._fault_comp, self._fault_wire = compile_fault_plan(
                plan, core
            )
        else:
            self._fault_comp = [None] * core.n_res
            self._fault_wire = [None] * core.n_wire_channels

        # Zero-jitter fast path: factors are exactly 1.0, so the jittered
        # arrays equal the base arrays bit-for-bit — precompute once.
        self._dur0 = self.base_dur.tolist()
        self._wire0 = core.wire_base.tolist()
        self._chunk0 = [self.chunk_wire] * n
        self._chunk0_arr = np.full(n, self.chunk_wire)
        self._dedicated0 = np.where(
            core.is_transfer, core.wire_base + core.lat, self.base_dur
        )

        # Expected per-channel rank arrays for the out-of-order audit
        # (satellite of ISSUE 3: compiled once, not re-sorted per recorded
        # iteration). Empty when the audit is off (no schedule / 'none').
        self._ooo_groups: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        if not self.schedule.is_empty and self.config.enforcement != "none":
            for params, op_ids, _acts in core.param_groups:
                ranks = self.schedule.normalized(list(params))
                rank_arr = np.array([ranks[p] for p in params], dtype=np.int64)
                ids = np.array(op_ids, dtype=np.int64)
                self._ooo_groups.append(
                    (ids, rank_arr, np.arange(len(op_ids), dtype=np.int64))
                )

    # -- delegated core surface ----------------------------------------
    @property
    def cluster(self) -> ClusterGraph:
        return self.core.cluster

    @property
    def platform(self) -> Platform:
        return self.core.platform

    @property
    def n(self) -> int:
        return self.core.n

    @property
    def n_res(self) -> int:
        return self.core.n_res

    @property
    def is_transfer(self) -> np.ndarray:
        return self.core.is_transfer

    @property
    def is_chunk(self) -> np.ndarray:
        return self.core.is_chunk

    @property
    def op_res(self) -> np.ndarray:
        return self.core.op_res

    @property
    def t_egress(self) -> np.ndarray:
        return self.core.t_egress

    @property
    def t_ingress(self) -> np.ndarray:
        return self.core.t_ingress

    @property
    def wire_base(self) -> np.ndarray:
        return self.core.wire_base

    @property
    def lat(self) -> np.ndarray:
        return self.core.lat

    @property
    def capacity(self) -> np.ndarray:
        return self.core.capacity

    @property
    def base_indeg(self) -> np.ndarray:
        return self.core.base_indeg

    @property
    def succ_indptr(self) -> np.ndarray:
        return self.core.succ_indptr

    @property
    def succ_indices(self) -> np.ndarray:
        return self.core.succ_indices

    def resource_names(self) -> list[str]:
        return self.core.resource_names()

    @property
    def fault_windows(self) -> list:
        """Name-resolved ``(kind, entity, w0, w1, rate)`` fault windows
        of this variant (empty without a plan) — the obs layer's view."""
        from ..faults.compile import fault_window_rows

        return fault_window_rows(self)

    # ------------------------------------------------------------------
    def _compile_gates(self) -> None:
        core = self.core
        mode = self.config.enforcement
        # Collective chunk transfers: lower the per-parameter schedule
        # onto chunk ranks once, globally (prio comparisons only ever
        # happen within one channel queue, so global dense ranks serve).
        if core.chunk_op_ids and self.config.chunk_queue == "priority":
            ranks = chunk_ranks(
                self.schedule,
                core.cluster.chunk_params,
                core.cluster.chunk_order,
            )
            for op_id, param in zip(core.chunk_op_ids, core.chunk_param_names):
                self.prio[op_id] = ranks[param]
        # One §5.1 counter per (channel, iteration): unrolled windows
        # restart the count every iteration, exactly as deployed.
        for ch, (params, op_ids, acts) in enumerate(core.param_groups):
            ranks = self.schedule.normalized(list(params))
            for param, op_id, act in zip(params, op_ids, acts):
                rank = ranks[param]
                if mode == "ready_queue":
                    self.prio[op_id] = rank
                elif mode == "dag":
                    self.dag_gate[op_id] = (ch, rank)
                else:  # sender
                    if act is None:
                        name = core.cluster.graph.op(op_id).name
                        raise ValueError(
                            f"param transfer {name!r} has no send activation"
                        )
                    self.handoff_gate[act] = (ch, rank)
        self.n_channels = len(core.param_groups)

    # ------------------------------------------------------------------
    def _trace_cap(self) -> int:
        """Static per-iteration chunk-event capacity (ISSUE 8 satellite).

        Jitter scales each op's wire time and chunk size by the SAME
        per-op lognormal factor, so the wire/chunk pass count
        ``ceil(wire/chunk)`` is jitter-invariant — the bound is a pure
        function of core tables and ``chunk_wire`` and is computed once
        per variant instead of per iteration (+1 slack per op for
        floating-point residue passes, +64 headroom). Both event loops
        still survive an undersized bound: the kernel aborts and replays
        with a grown buffer, the python loop grows its arrays in place.
        """
        cap = getattr(self, "_trace_cap_cached", None)
        if cap is None:
            core = self.core
            w = core.wire_base[core.is_transfer]
            cw = self.chunk_wire
            passes = int(np.ceil(w / cw).sum()) if cw > 0 and w.size else 0
            cap = self._trace_cap_cached = passes + core.n + 64
        return cap

    # ------------------------------------------------------------------
    def run_iteration(self, iteration: int = 0) -> IterationRecord:
        """Execute one iteration; deterministic in ``iteration`` and config."""
        return self.run_iterations(iteration, 1)[0]

    #: iterations whose batched setup (RNG matrices) is drawn at once.
    #: Bounds the working set of :meth:`iter_iterations` to O(_SLAB x n)
    #: regardless of the requested count (1000-iteration protocols would
    #: otherwise stage ~5 full (count, n) float64 matrices).
    _SLAB = 64

    def run_iterations(self, first: int = 0, count: int = 1) -> list[IterationRecord]:
        """Execute ``count`` consecutive iterations starting at ``first``.

        Materializes every record; prefer :meth:`iter_iterations` when the
        records are summarized and discarded one at a time."""
        return list(self.iter_iterations(first, count))

    def iter_iterations(self, first: int = 0, count: int = 1):
        """Yield ``count`` consecutive iteration records lazily.

        The batch API amortizes per-iteration setup: RNG construction
        happens up front per slab and the jitter factors are drawn as one
        ``(slab, n)`` matrix (one row per iteration's own generator, so
        each iteration's RNG stream is identical to a standalone
        :meth:`run_iteration` call — results are bit-equal either way).
        """
        cfg = self.config
        core = self.core
        n = core.n
        sigma = self._jitter_sigma
        use_kernel = self._kernel_loop is not None
        for lo in range(0, max(count, 0), self._SLAB):
            slab = min(self._SLAB, count - lo)
            rngs = [
                np.random.default_rng(
                    np.random.SeedSequence((cfg.seed, first + lo + i))
                )
                for i in range(slab)
            ]
            if sigma > 0:
                factors = np.empty((slab, n))
                for i, rng in enumerate(rngs):
                    factors[i] = rng.lognormal(0.0, sigma, n)
                durs = self.base_dur * factors
                wires = core.wire_base * factors
                chunks = self.chunk_wire * factors
                dedicated = np.where(core.is_transfer, wires + core.lat, durs)
                for i in range(slab):
                    # the dedicated row is copied so a surviving record
                    # does not pin the whole slab matrix alive
                    if use_kernel:
                        yield self._execute_kernel(
                            rngs[i], durs[i], wires[i], chunks[i],
                            dedicated[i].copy(),
                        )
                    else:
                        yield self._execute(
                            rngs[i],
                            durs[i].tolist(),
                            wires[i].tolist(),
                            chunks[i].tolist(),
                            dedicated[i].copy(),
                        )
            else:
                for rng in rngs:
                    if use_kernel:
                        yield self._execute_kernel(
                            rng, self.base_dur, core.wire_base,
                            self._chunk0_arr, self._dedicated0.copy(),
                        )
                    else:
                        yield self._execute(
                            rng, self._dur0, self._wire0, self._chunk0,
                            self._dedicated0.copy(),
                        )

    # ------------------------------------------------------------------
    def _execute_kernel(self, rng, dur, wire, chunk_of, dedicated) -> IterationRecord:
        """Run one iteration through the array kernel (numba/portable).

        Bit-exact with :meth:`_execute`: the kernel replays the same
        event order and consumes the same RNG stream (see
        :mod:`repro.sim.kernel`)."""
        start_arr, end_arr, traced = _kernel.execute_event_loop(
            self, rng, dur, wire, chunk_of, self._kernel_loop
        )
        if np.isnan(end_arr).any():  # pragma: no cover - would indicate a bug
            stuck = int(np.isnan(end_arr).sum())
            raise RuntimeError(f"simulation deadlock: {stuck} ops never ran")
        trace = None if traced is None else TraceEvents(*traced)
        return IterationRecord(
            makespan=float(np.nanmax(end_arr)),
            start=start_arr,
            end=end_arr,
            dedicated=dedicated,
            out_of_order_handoffs=self._count_out_of_order(start_arr),
            trace=trace,
        )

    # ------------------------------------------------------------------
    def _execute(self, rng, dur, wire, chunk_of, dedicated) -> IterationRecord:
        """The event loop. ``dur``/``wire``/``chunk_of`` are plain-python
        float lists (read-only); ``dedicated`` is the record's array.

        Random compute picks, priority ties and gRPC reorder noise draw
        from ``rng``'s raw PCG64 stream through :func:`_raw_stream`, the
        same consumption model as the array kernel; the draws equal
        ``rng.integers`` / ``rng.random`` bit for bit."""
        core = self.core
        cfg = self.config
        n = core.n
        nan = float("nan")

        # -- per-iteration state (flat, preallocated) -------------------
        indeg = core.base_indeg_list.copy()
        start = [nan] * n
        end = [nan] * n
        active = [0] * core.n_res
        cap = core.capacity_list
        # compute ready queues: ungated ops in arrival order, plus (for
        # resources hosting §5.1 counters) gated activations parked in
        # per-channel rank slots and arrival stamps to reconstruct the
        # queue order exactly.
        plain: list[list[int]] = [[] for _ in range(core.n_res)]
        pstamps: list[list[int]] = [[] for _ in range(core.n_res)]
        gated_slots: list[list] = [[None] * size for size in self._chan_size]
        res_channels = self._res_channels
        # wire channels: flat queue buffer with head/tail cursors (a gRPC
        # channel is one TCP connection: its chunks serialize at the
        # connection rate; a busy flag marks a chunk on the wire).
        qbuf = [0] * core.q_slots
        q_base = core.q_base
        q_head = [0] * core.n_wire_channels
        q_tail = [0] * core.n_wire_channels
        ch_busy = [False] * core.n_wire_channels
        egress_ids = core.egress_ids
        eg_chans = core.eg_chan_lists
        n_eg = len(egress_ids)
        rr_ptr = [0] * n_eg
        rem_wire = list(wire)  # outstanding wire seconds per transfer
        started = bytearray(n)
        ch_handoff = [0] * self.n_channels  # sender counters (§5.1)
        ch_complete = [0] * self.n_channels  # dag-mode completion counters
        fabric_cap = cfg.fabric_slots  # shared-fabric congestion (§7)
        fabric_active = 0
        stamp = 0  # ready-arrival sequence (compute-queue order)

        heap: list[tuple[float, int, int, int]] = []
        seq = 0
        heappush = heapq.heappush
        heappop = heapq.heappop

        # -- hot locals --------------------------------------------------
        is_transfer = core.is_transfer_list
        is_chunk = core.is_chunk_list
        op_res = core.op_res_list
        t_egress = core.t_egress_list
        t_ingress = core.t_ingress_list
        t_chan = core.t_chan_list
        eg_pos = core.eg_pos
        chan_iid = core.chan_iid
        lat = core.lat_list
        hg_ch = self._hg_ch
        hg_rank = self._hg_rank
        dg_ch = self._dg_ch
        dg_rank = self._dg_rank
        prio_arr = self._prio_arr
        has_dag = bool(self.dag_gate)
        has_prio = bool(self.prio)
        random_compute = cfg.compute_queue == "random"
        mode = cfg.enforcement
        mode_rq = mode == "ready_queue"
        mode_none = mode == "none"
        mode_dag = mode == "dag"
        noise = cfg.grpc_reorder_prob if mode == "sender" else 0.0
        rng_random, rng_integers = _raw_stream(rng.bit_generator)

        has_handoff = bool(self.handoff_gate)
        #: fault windows per compute resource / wire channel (ISSUE 9);
        #: all-None without a plan — the None branches below are then the
        #: pre-fault expressions, byte-for-byte.
        fault_comp = self._fault_comp
        fault_wire = self._fault_wire
        #: queued-transfer count per egress position: lets every event
        #: skip the dispatch call for idle NICs (bit-safe: an empty-queue
        #: dispatch consumes no RNG and changes no state).
        eg_pending = [0] * n_eg

        # -- opt-in tracing (repro.obs): side writes only — no RNG, no
        # control flow, so traced and untraced runs are bit-identical.
        # Python lists on purpose: scalar writes in this loop are ~3x
        # cheaper on lists than on numpy arrays, and the one conversion
        # per array at the end is vectorized. The chunk-event lists are
        # pre-sized from the static per-variant bound so they never
        # resize mid-loop.
        tr = cfg.trace
        tce_i = 0
        if tr:
            tr_ready = [nan] * n
            tr_depth = [-1] * n
            tce_cap = self._trace_cap()
            tce_op = [0] * tce_cap
            tce_t0 = [0.0] * tce_cap
            tce_dur = [0.0] * tce_cap

        # --- compute dispatch -------------------------------------------
        # Semantics are the §3.1 rule over the *eligible* subset of the
        # ready queue: every ungated op, plus — per §5.1 counter channel —
        # the one activation whose rank equals the channel counter. The
        # reference engine rescanned the whole queue per dispatch; here
        # eligibility is assembled from the per-channel slots, and the
        # random pick reproduces the reference draw exactly because the
        # eligible count and its queue-order enumeration are identical.
        def dispatch_compute_gated(rid: int, t: float) -> None:
            nonlocal seq
            if active[rid] >= cap[rid]:
                return
            plain_ops = plain[rid]
            chans = res_channels[rid]
            if chans:
                stamps = pstamps[rid]
                elig: list[tuple[int, int]] = []  # (stamp, channel)
                for ch in chans:
                    slots = gated_slots[ch]
                    r = ch_handoff[ch]
                    if r < len(slots):
                        entry = slots[r]
                        if entry is not None:
                            elig.append((entry[0], ch))
                n_plain = len(plain_ops)
                n_gated = len(elig)
                total = n_plain + n_gated
                if total == 0:
                    return
                if random_compute and total > 1:
                    m = rng_integers(total)
                else:
                    m = 0
                if n_gated == 0:
                    op = plain_ops.pop(m)
                    del stamps[m]
                else:
                    if n_gated > 1:
                        elig.sort()
                    # m-th element of the stamp-ordered union of the plain
                    # queue (sorted, indexable) and the eligible gated ops.
                    op = -1
                    for e in range(n_gated):
                        st, ch = elig[e]
                        pos = e + bisect_left(stamps, st)
                        if pos == m:
                            r = ch_handoff[ch]
                            op = gated_slots[ch][r][1]
                            gated_slots[ch][r] = None
                            ch_handoff[ch] = r + 1
                            break
                        if pos > m:
                            k = m - e
                            op = plain_ops.pop(k)
                            del stamps[k]
                            break
                    if op < 0:
                        k = m - n_gated
                        op = plain_ops.pop(k)
                        del stamps[k]
            else:
                total = len(plain_ops)
                if total == 0:
                    return
                if random_compute and total > 1:
                    m = rng_integers(total)
                else:
                    m = 0
                op = plain_ops.pop(m)
            active[rid] += 1
            if tr:
                tr_depth[op] = total
            start[op] = t
            fc = fault_comp[rid]
            if fc is None:
                heappush(heap, (t + dur[op], seq, 0, op))
            else:
                heappush(heap, (_compute_fault_end(t, dur[op], fc), seq, 0, op))
            seq += 1

        def dispatch_compute_plain(rid: int, t: float) -> None:
            # no §5.1 gates anywhere: the whole queue is eligible.
            nonlocal seq
            plain_ops = plain[rid]
            total = len(plain_ops)
            if total == 0 or active[rid] >= cap[rid]:
                return
            if random_compute and total > 1:
                op = plain_ops.pop(rng_integers(total))
            else:
                op = plain_ops.pop(0)
            active[rid] += 1
            if tr:
                tr_depth[op] = total
            start[op] = t
            fc = fault_comp[rid]
            if fc is None:
                heappush(heap, (t + dur[op], seq, 0, op))
            else:
                heappush(heap, (_compute_fault_end(t, dur[op], fc), seq, 0, op))
            seq += 1

        dispatch_compute = (
            dispatch_compute_gated if has_handoff else dispatch_compute_plain
        )

        # --- transfer dispatch (chunked, round-robin over channels) ------
        def dispatch_egress(pos: int, t: float) -> None:
            nonlocal seq, fabric_active, tce_i
            if not eg_pending[pos]:
                return
            chans = eg_chans[pos]
            eid = egress_ids[pos]
            n_chans = len(chans)
            while active[eid] < cap[eid] and (
                fabric_cap is None or fabric_active < fabric_cap
            ):
                ptr = rr_ptr[pos]
                progressed = False
                for step in range(n_chans):
                    slot = ptr + step
                    if slot >= n_chans:
                        slot -= n_chans
                    c = chans[slot]
                    iid = chan_iid[c]
                    if active[iid] >= cap[iid] or ch_busy[c]:
                        continue
                    h = q_head[c]
                    tl = q_tail[c]
                    if h == tl:
                        continue
                    base = q_base[c]
                    # -- pick_head: choose which queued transfer transmits
                    # next on this channel. Once a transfer has started it
                    # keeps the channel until its wire time is done.
                    q0 = qbuf[base + h]
                    if started[q0]:
                        k = 0
                    elif has_prio and (mode_rq or is_chunk[q0]):
                        # Priority pick: the idealized ready-queue
                        # semantics, and the gating for collective chunk
                        # streams under every enforcement mode but 'none'
                        # (see SimConfig.chunk_queue).
                        prios = [prio_arr[qbuf[j]] for j in range(base + h, base + tl)]
                        known = [p for p in prios if p >= 0]
                        if known:
                            lowest = min(known)
                            cands = [
                                i for i, p in enumerate(prios)
                                if p < 0 or p == lowest
                            ]
                        else:
                            cands = list(range(len(prios)))
                        if len(cands) > 1:
                            k = cands[rng_integers(len(cands))]
                        else:
                            k = cands[0]
                    elif mode_none and tl - h > 1:
                        k = rng_integers(tl - h)
                    elif mode_dag and has_dag:
                        # Hand-offs are unordered in this mode; find the
                        # transfer whose DAG predecessor chain is satisfied.
                        k = -1
                        for i in range(tl - h):
                            op2 = qbuf[base + h + i]
                            c2 = dg_ch[op2]
                            if c2 < 0 or ch_complete[c2] == dg_rank[op2]:
                                k = i
                                break
                        if k < 0:
                            continue
                    else:
                        k = 0
                    if k != 0:
                        i1 = base + h
                        i2 = i1 + k
                        qbuf[i1], qbuf[i2] = qbuf[i2], qbuf[i1]
                    op = qbuf[base + h]
                    if not started[op]:
                        started[op] = 1
                        start[op] = t
                        if tr:
                            tr_depth[op] = tl - h
                    r = rem_wire[op]
                    co = chunk_of[op]
                    cdur = r if r < co else co
                    r -= cdur
                    rem_wire[op] = r
                    # fault windows stretch the chunk's wall time; the
                    # nominal rem_wire decrement above is untouched, so
                    # faults never lose or duplicate payload bytes.
                    fw = fault_wire[c]
                    cend = (t + cdur) if fw is None else _chunk_fault_end(
                        t, cdur, fw
                    )
                    if r <= 1e-18:
                        q_head[c] = h + 1  # wire done; channel moves on
                        eg_pending[pos] -= 1
                        heappush(heap, (cend + lat[op], seq, 1, op))
                        seq += 1
                    if tr:
                        if tce_i == len(tce_op):  # pragma: no cover
                            # static bound slack exhausted: grow in place
                            tce_op.extend(tce_op)
                            tce_t0.extend(tce_t0)
                            tce_dur.extend(tce_dur)
                        tce_op[tce_i] = op
                        tce_t0[tce_i] = t
                        # nominal cdur when unfaulted: (cend - t) would
                        # differ in the last float bit from the untraced
                        # engine's own cdur arithmetic.
                        tce_dur[tce_i] = cdur if fw is None else cend - t
                        tce_i += 1
                    active[eid] += 1
                    active[iid] += 1
                    fabric_active += 1
                    ch_busy[c] = True
                    heappush(heap, (cend, seq, 2, op))
                    seq += 1
                    rr_ptr[pos] = slot + 1
                    progressed = True
                    break
                if not progressed:
                    return

        def make_ready(op: int, t: float) -> None:
            # KEEP IN SYNC with the hand-inlined copy in the successor
            # walk of the main loop below — the two must enqueue
            # identically or root ops and successor ops would see
            # different queue orders (the golden tests pin this).
            nonlocal stamp
            if tr:
                tr_ready[op] = t
            if is_transfer[op]:
                c = t_chan[op]
                base = q_base[c]
                tl = q_tail[c]
                qbuf[base + tl] = op
                tl += 1
                q_tail[c] = tl
                # residual gRPC reordering: occasionally a hand-off slips
                # one slot (the paper measured 0.4-0.5% of transfers).
                if noise > 0 and tl - q_head[c] >= 2 and rng_random() < noise:
                    i1 = base + tl - 1
                    i2 = i1 - 1
                    qbuf[i1], qbuf[i2] = qbuf[i2], qbuf[i1]
                pos = eg_pos[t_egress[op]]
                eg_pending[pos] += 1
                dispatch_egress(pos, t)
            else:
                rid = op_res[op]
                ch = hg_ch[op]
                if ch >= 0:
                    gated_slots[ch][hg_rank[op]] = (stamp, op)
                    stamp += 1
                elif res_channels[rid]:
                    plain[rid].append(op)
                    pstamps[rid].append(stamp)
                    stamp += 1
                else:
                    # stamps order the merged gated/plain eligibility
                    # pick; resources with no §5.1 channels never merge,
                    # so their arrivals skip the counter entirely.
                    plain[rid].append(op)
                if active[rid] < cap[rid]:
                    dispatch_compute(rid, t)

        # --- initialization -----------------------------------------------
        # Roots with a zero arrival offset take the direct path (no heap
        # event, no seq consumed — bit-exact with the single-job engine);
        # deferred roots of later-arriving jobs release via code-3 events.
        for op, rt in zip(core.roots, core.root_times_list):
            if rt > 0.0:
                heappush(heap, (rt, seq, 3, op))
                seq += 1
            else:
                make_ready(op, 0.0)

        # --- main loop -----------------------------------------------------
        # The successor walk inlines make_ready: it runs once per DAG edge
        # and dominates the loop, so the call overhead is worth folding.
        succ_of = core.succ_of
        while heap:
            t, _s, code, op = heappop(heap)
            if code == 2:  # chunk done
                eid = t_egress[op]
                iid = t_ingress[op]
                active[eid] -= 1
                active[iid] -= 1
                fabric_active -= 1
                ch_busy[t_chan[op]] = False
                pos = eg_pos[eid]
                dispatch_egress(pos, t)
                # the freed ingress (or fabric slot) may unblock transfers
                # queued at other NICs
                if active[iid] < cap[iid] or fabric_cap is not None:
                    for other in range(n_eg):
                        if other != pos and eg_pending[other]:
                            dispatch_egress(other, t)
                continue
            if code == 3:  # deferred root arrival (job-mix offsets)
                make_ready(op, t)
                continue
            end[op] = t
            if code == 0:  # compute done
                rid = op_res[op]
                active[rid] -= 1
                if plain[rid] or res_channels[rid]:
                    dispatch_compute(rid, t)
            else:  # transfer done
                if has_dag:
                    c = dg_ch[op]
                    if c >= 0:
                        ch_complete[c] += 1
                        for pos in range(n_eg):  # dag gates may have opened
                            if eg_pending[pos]:
                                dispatch_egress(pos, t)
            for s in succ_of[op]:
                d = indeg[s] - 1
                indeg[s] = d
                if d == 0:
                    # KEEP IN SYNC with make_ready above (hand-inlined:
                    # this block runs once per op and the call overhead
                    # is measurable; any edit must land in both copies).
                    if tr:
                        tr_ready[s] = t
                    if is_transfer[s]:
                        c = t_chan[s]
                        base = q_base[c]
                        tl = q_tail[c]
                        qbuf[base + tl] = s
                        tl += 1
                        q_tail[c] = tl
                        if noise > 0 and tl - q_head[c] >= 2 and rng_random() < noise:
                            i1 = base + tl - 1
                            i2 = i1 - 1
                            qbuf[i1], qbuf[i2] = qbuf[i2], qbuf[i1]
                        pos = eg_pos[t_egress[s]]
                        eg_pending[pos] += 1
                        dispatch_egress(pos, t)
                    else:
                        rid = op_res[s]
                        ch = hg_ch[s]
                        if ch >= 0:
                            gated_slots[ch][hg_rank[s]] = (stamp, s)
                            stamp += 1
                        elif res_channels[rid]:
                            plain[rid].append(s)
                            pstamps[rid].append(stamp)
                            stamp += 1
                        else:
                            plain[rid].append(s)
                        if active[rid] < cap[rid]:
                            dispatch_compute(rid, t)

        end_arr = np.array(end)
        if np.isnan(end_arr).any():  # pragma: no cover - would indicate a bug
            stuck = int(np.isnan(end_arr).sum())
            raise RuntimeError(f"simulation deadlock: {stuck} ops never ran")
        start_arr = np.array(start)
        trace = None
        if tr:
            trace = TraceEvents(
                ready=np.array(tr_ready),
                depth=np.array(tr_depth, dtype=np.int64),
                chunk_op=np.array(tce_op[:tce_i], dtype=np.int64),
                chunk_start=np.array(tce_t0[:tce_i], dtype=np.float64),
                chunk_dur=np.array(tce_dur[:tce_i], dtype=np.float64),
            )
        return IterationRecord(
            makespan=float(np.nanmax(end_arr)),
            start=start_arr,
            end=end_arr,
            dedicated=dedicated,
            out_of_order_handoffs=self._count_out_of_order(start_arr),
            trace=trace,
        )

    # ------------------------------------------------------------------
    def _count_out_of_order(self, start: np.ndarray) -> int:
        """Param transfers that hit the wire out of priority order.

        Uses the rank arrays compiled at variant construction: per §5.1
        channel, a stable argsort of the wire start times against the
        expected dense ranks (no per-iteration re-normalization)."""
        count = 0
        for op_ids, ranks, arange in self._ooo_groups:
            order = np.argsort(start[op_ids], kind="stable")
            count += int(np.count_nonzero(ranks[order] != arange))
        return count

    # ------------------------------------------------------------------
    def resource_loads(self, record: IterationRecord) -> dict[str, float]:
        """Dedicated-time load per effective resource for one iteration:
        compute loads plus per-NIC wire loads (a transfer loads both its
        egress and its ingress NIC; multi-slot NICs divide their load by
        their slot count). This is Eq. 2's inner sum under the simulator's
        true resource model, accumulated with ``np.add.at`` over the
        core's precomputed resource-id arrays."""
        core = self.core
        loads = np.zeros(core.n_res)
        wire_actual = record.dedicated - core.lat  # wire component
        w = wire_actual[core.tr_ids]
        np.add.at(loads, core.tr_eg, w)
        np.add.at(loads, core.tr_in, w)
        np.add.at(
            loads,
            core.comp_res,
            record.end[core.comp_ids] - record.start[core.comp_ids],
        )
        loads /= core.capacity
        out = dict(zip(core.resource_names(), loads.tolist()))
        if self.config.fabric_slots is not None:
            out["fabric"] = float(
                wire_actual[core.is_transfer].sum() / self.config.fabric_slots
            )
        return out
