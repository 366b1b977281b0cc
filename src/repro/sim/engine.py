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
  core serves every algorithm/config variant of a cell group. A cluster
  is compiled from its block layout, never from its op-level graph
  (:mod:`repro.sim.compile`): the worker replica is compiled once per
  platform and tiled with numpy at every worker's op offset, beside the
  backend's glue ops compiled as one small block.
* :class:`SimVariant` binds a core to one ``(schedule, config)`` pair:
  dense gate/priority arrays, slowdown-scaled durations, jitter sigma.
  Variant compilation touches only O(n) array fills — no graph traversal.

**Multi-job mixes.** A core of a job mix (see :mod:`repro.sim.jobmix`)
is composed from per-shape cores by the same block assembly, and
carries job tags (``jobs``/``job_of``) and per-root release times
(``root_times``): roots of a job with a non-zero arrival
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

**One event loop.** :meth:`SimVariant._execute` is the engine's only
event loop. Random compute picks, priority ties and gRPC reorder noise
read the iteration generator's raw PCG64 stream through
:func:`_raw_stream`, whose draws equal ``Generator.random()`` /
``Generator.integers()`` bit for bit (pinned draw by draw against numpy
in ``tests/sim/test_loop_parity.py``). Three choices keep its cost per
event down without changing a draw:

* the chunk priority pick (:func:`_priority_pick`) finds a unique
  lowest priority with C-level ``min``/``count``/``index`` and builds a
  candidate list only for ties and unprioritized entries;
* without §5.1 hand-off gates, a compute-done event refills its freed
  slot inline and a ready compute successor joins its queue inline;
  both repeat the body of a dispatch function, named at both sites;
* the core's successor tables (``succ_of``) are tuples of ints, which
  the cyclic GC untracks after one pass, so full collections stop
  walking every live core's per-op lists.
"""

from __future__ import annotations

import hashlib
import heapq
from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.schedules import Schedule, chunk_ranks
from ..obs.events import TraceEvents
from ..ps.cluster import ClusterGraph
from ..registry import did_you_mean
from ..timing import Platform
from .config import SimConfig
from .compile import compile_graph, tile_core
from .jobmix import JobMixGraph, compose_core

#: Revision of the engine's compiled-array layout / numerical contract.
#: Folded into the sweep cache key (see :mod:`repro.sweep.fingerprint`):
#: bump it whenever the engine's numbers are *intended* to change, so
#: cached cells simulated by an older engine can never be served as hits.
ENGINE_REV = 3


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
    semantics — the RPC retransmits, it does not resume mid-chunk)."""
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
    ``Generator`` on ``bit_generator``:

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


def _priority_pick(prios: list[int], integers) -> int:
    """Queue index of the transfer a priority pick sends next.

    ``prios`` holds the queued transfers' priorities in queue order
    (``-1`` = unprioritized). The candidates are the entries with the
    lowest known priority plus every unprioritized entry (all entries
    when none is known); one candidate is taken as is, and among several
    ``integers(n_candidates)`` draws the one to take in queue order.

    Priorities are never negative except ``-1``, so the common queue is
    all known: a unique minimum is found by the C-level ``min``/
    ``count``/``index`` without building any candidate list, and only a
    tie or an unprioritized entry builds one. The draws are those of the
    candidate-list rule in every case.
    """
    lowest = min(prios)
    if lowest >= 0:
        n = prios.count(lowest)
        if n == 1:
            return prios.index(lowest)
        return [i for i, p in enumerate(prios) if p == lowest][integers(n)]
    known = [p for p in prios if p >= 0]
    lowest = min(known) if known else -1
    cands = [i for i, p in enumerate(prios) if p < 0 or p == lowest]
    return cands[integers(len(cands))] if len(cands) > 1 else cands[0]


class CompiledCore:
    """``(cluster, platform)`` lowered to immutable flat arrays.

    ``cluster`` is one of:

    * a single-job :class:`~repro.ps.cluster.ClusterGraph`, PS or
      all-reduce: tiled from its :attr:`tiling`
      (:func:`~repro.sim.compile.tile_core`), with its
      ``transfers_by_link`` and the chunk metadata (empty under PS) that
      lowers schedule priorities onto chunk transfer ops. The cluster's
      op-level ``graph`` is never read, so never spliced;
    * a :class:`~repro.sim.jobmix.JobMixGraph`: composed from its jobs'
      per-shape cores (:func:`~repro.sim.jobmix.compose_core`);
    * any other surface with a ``graph`` (and ``transfers_by_link``; the
      optional ``host_map``/``job_ops``/``job_arrivals`` describe a mix
      as a spliced union DAG): walked op by op by the block compiler
      (:func:`~repro.sim.compile.compile_graph`), the reference the two
      routes above are tested against.

    Everything here is independent of :class:`Schedule` and
    :class:`SimConfig`; bind those with :class:`SimVariant`. The arrays are
    treated as frozen — variants and iterations never mutate them — so one
    core can back any number of variants.
    """

    def __init__(self, cluster: ClusterGraph, platform: Platform) -> None:
        if isinstance(cluster, JobMixGraph):
            tables = compose_core(cluster, platform)
        elif isinstance(cluster, ClusterGraph):
            tables = tile_core(cluster, platform)
        else:
            tables = compile_graph(cluster, platform)
        self._adopt(*tables)

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
        self.base_indeg_list = self.base_indeg.tolist()
        indptr = self.succ_indptr.tolist()
        succ = self.succ_indices.tolist()
        #: per-op successor id tuples (CSR unpacked once: the succ walk is
        #: the single most-executed statement of the event loop). Tuples,
        #: not lists: a tuple of ints leaves the cyclic GC after the first
        #: collection that sees it, while a list is walked by every full
        #: collection for as long as the core lives.
        self.succ_of = [tuple(succ[a:b]) for a, b in zip(indptr, indptr[1:])]
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

        # Static per-op slowdown multipliers (compute ops of slow devices).
        self.slowdown = np.ones(n)
        for device, factor in self.config.device_slowdown:
            ids = core.device_compute_ops.get(device)
            if ids is None:
                known = sorted(
                    d for d in core.device_compute_ops if d is not None
                )
                raise ValueError(
                    f"device_slowdown names unknown device {device!r}; "
                    f"known devices: {known}" + did_you_mean(device, known)
                )
            self.slowdown[ids] = factor
        self.base_dur = core.base_dur * self.slowdown

        # --- deterministic fault windows (ISSUE 9) ----------------------
        # Merge the config plan with any per-job plans scoped onto the
        # core, then lower to per-resource / per-channel window lists.
        # All-None lists mean the event loop executes the literal
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
        if core.chunk_op_ids:
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
    def lowering_digest(self) -> bytes:
        """Digest of the schedule's lowering onto the core: the dense
        priority and gate arrays (``_prio_arr``, ``_hg_ch``/``_hg_rank``,
        ``_dg_ch``/``_dg_rank``), ``n_channels`` and the out-of-order
        audit's rank arrays. Everything else a variant holds comes from
        the core and the config, and the event loop and
        :meth:`_count_out_of_order` read nothing else of the schedule, so
        two variants of one core and one config with equal digests
        produce identical iterations (different schedules can lower
        equally, e.g. TIC and TAC once fused into all-reduce chunks)."""
        h = hashlib.blake2b(digest_size=16)
        h.update(np.array(
            [self.n_channels, len(self._ooo_groups)], dtype=np.int64
        ).tobytes())
        for arr in (self._prio_arr, self._hg_ch, self._hg_rank,
                    self._dg_ch, self._dg_rank):
            h.update(np.array(arr, dtype=np.int64).tobytes())
        for _ids, ranks, _arange in self._ooo_groups:
            h.update(ranks.tobytes())
        return h.digest()

    # ------------------------------------------------------------------
    def _trace_cap(self) -> int:
        """Static per-iteration chunk-event capacity (ISSUE 8 satellite).

        Jitter scales each op's wire time and chunk size by the SAME
        per-op lognormal factor, so the wire/chunk pass count
        ``ceil(wire/chunk)`` is jitter-invariant — the bound is a pure
        function of core tables and ``chunk_wire`` and is computed once
        per variant instead of per iteration (+1 slack per op for
        floating-point residue passes, +64 headroom). An undersized bound
        is still survived: the event loop grows its arrays in place.
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
                    yield self._execute(
                        rngs[i],
                        durs[i].tolist(),
                        wires[i].tolist(),
                        chunks[i].tolist(),
                        dedicated[i].copy(),
                    )
            else:
                for rng in rngs:
                    yield self._execute(
                        rng, self._dur0, self._wire0, self._chunk0,
                        self._dedicated0.copy(),
                    )

    # ------------------------------------------------------------------
    def _execute(self, rng, dur, wire, chunk_of, dedicated) -> IterationRecord:
        """The event loop. ``dur``/``wire``/``chunk_of`` are plain-python
        float lists (read-only); ``dedicated`` is the record's array.

        Random compute picks, priority ties and gRPC reorder noise draw
        from ``rng``'s raw PCG64 stream through :func:`_raw_stream`; the
        draws equal ``rng.integers`` / ``rng.random`` bit for bit."""
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
        stamp = 0  # ready-arrival sequence (compute-queue order)

        # Heap entries are (time, seq, code, op_id). Event codes: 0 compute
        # done, 1 transfer done, 2 chunk done, 3 deferred root release (a
        # job-mix root op arriving at its job's offset; offset-zero roots
        # keep the direct make_ready init path, bit-exact with the
        # single-job engine).
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
                m = rng_integers(total) if total > 1 else 0
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
                m = rng_integers(total) if total > 1 else 0
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
            # no §5.1 gates anywhere: the whole queue is eligible. The
            # main loop repeats this body inline (plain compute refill).
            nonlocal seq
            plain_ops = plain[rid]
            total = len(plain_ops)
            if total == 0 or active[rid] >= cap[rid]:
                return
            op = plain_ops.pop(rng_integers(total) if total > 1 else 0)
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
            nonlocal seq, tce_i
            if not eg_pending[pos]:
                return
            chans = eg_chans[pos]
            eid = egress_ids[pos]
            n_chans = len(chans)
            while active[eid] < cap[eid]:
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
                        # streams under every enforcement mode but 'none'.
                        k = _priority_pick(
                            list(map(prio_arr.__getitem__,
                                     qbuf[base + h:base + tl])),
                            rng_integers,
                        )
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
                    ch_busy[c] = True
                    heappush(heap, (cend, seq, 2, op))
                    seq += 1
                    rr_ptr[pos] = slot + 1
                    progressed = True
                    break
                if not progressed:
                    return

        def make_ready(op: int, t: float) -> None:
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
                    # so their arrivals skip the counter entirely. The
                    # main loop repeats this branch inline (plain compute
                    # readiness).
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
        # Without §5.1 gates every compute queue is one plain list, and the
        # two most frequent compute steps run inline instead of as calls:
        # a compute-done event refills its freed slot at once (plain
        # compute refill: one op leaves, one enters, so ``active`` stays),
        # and a compute successor that becomes ready joins its queue and
        # dispatches only on an idle device (plain compute readiness). They
        # repeat dispatch_compute_plain's body and make_ready's ungated
        # compute branch, each named at both sites.
        succ_of = core.succ_of
        while heap:
            t, _s, code, op = heappop(heap)
            if code == 2:  # chunk done
                eid = t_egress[op]
                iid = t_ingress[op]
                active[eid] -= 1
                active[iid] -= 1
                ch_busy[t_chan[op]] = False
                pos = eg_pos[eid]
                dispatch_egress(pos, t)
                # the freed ingress may unblock transfers queued at other
                # NICs
                if active[iid] < cap[iid]:
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
                if has_handoff:
                    active[rid] -= 1
                    if plain[rid] or res_channels[rid]:
                        dispatch_compute_gated(rid, t)
                elif plain[rid]:
                    # plain compute refill (dispatch_compute_plain's body)
                    plain_ops = plain[rid]
                    total = len(plain_ops)
                    nxt = plain_ops.pop(rng_integers(total) if total > 1 else 0)
                    if tr:
                        tr_depth[nxt] = total
                    start[nxt] = t
                    fc = fault_comp[rid]
                    if fc is None:
                        heappush(heap, (t + dur[nxt], seq, 0, nxt))
                    else:
                        heappush(
                            heap, (_compute_fault_end(t, dur[nxt], fc), seq, 0, nxt)
                        )
                    seq += 1
                else:
                    active[rid] -= 1
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
                    if not has_handoff and not is_transfer[s]:
                        # plain compute readiness (make_ready's branch)
                        if tr:
                            tr_ready[s] = t
                        rid = op_res[s]
                        plain[rid].append(s)
                        if active[rid] < cap[rid]:
                            dispatch_compute_plain(rid, t)
                    else:
                        make_ready(s, t)

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
        return dict(zip(core.resource_names(), loads.tolist()))
