"""Per-iteration trace reductions: from raw event streams to answers.

:class:`Trace` joins one :class:`~repro.sim.engine.IterationRecord`'s
event streams (``record.trace`` — queue-enter times, dispatch-time queue
depths, per-chunk wire occupancies) with the static structure of the
variant that produced it (op kinds, resource ids, wire channels,
priority ranks, job tags, op names) into a self-contained object that
can answer the questions observability is for:

- **Where did time go?** — :meth:`critical_path` walks the latest-
  finishing dependency chain and attributes it to compute, wire and
  queue wait; :meth:`overlap` measures the comm/computation overlap the
  paper's schedules exist to create.
- **How busy were the links?** — :meth:`link_utilization` bins the
  chunk stream into per-NIC utilization timelines;
  :meth:`queue_depth_histogram` shows contention at dispatch.
- **Did the scheduler behave?** — :meth:`scheduler_diagnostics` recounts
  priority inversions per §5.1 channel (its total equals
  ``record.out_of_order_handoffs`` by construction); :meth:`job_stats`
  compares per-job transfer waits under multi-job mixes (starvation
  ratios).

A ``Trace`` copies everything it needs out of the variant at
construction, so it stays valid after the variant (or its shared core)
is gone. Build one via :meth:`Trace.from_record` or, end to end from a
scenario name, :func:`repro.obs.capture.capture_trace`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .events import TraceEvents


def _merged(intervals: np.ndarray) -> list:
    """``(start, end)`` rows merged into a sorted, disjoint list."""
    if len(intervals) == 0:
        return []
    order = np.argsort(intervals[:, 0], kind="stable")
    merged = []
    cur_lo, cur_hi = intervals[order[0]]
    for lo, hi in intervals[order[1:]]:
        if lo > cur_hi:
            merged.append((float(cur_lo), float(cur_hi)))
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    merged.append((float(cur_lo), float(cur_hi)))
    return merged


def _union_length(intervals: np.ndarray) -> float:
    """Total length covered by the union of ``(start, end)`` rows."""
    return sum(hi - lo for lo, hi in _merged(intervals))


def _intersect_length(a: np.ndarray, b: np.ndarray) -> float:
    """Length of (union of a) ∩ (union of b), two-pointer merge."""
    ma, mb = _merged(a), _merged(b)
    i = j = 0
    total = 0.0
    while i < len(ma) and j < len(mb):
        lo = max(ma[i][0], mb[j][0])
        hi = min(ma[i][1], mb[j][1])
        if hi > lo:
            total += hi - lo
        if ma[i][1] < mb[j][1]:
            i += 1
        else:
            j += 1
    return total


@dataclass
class Trace:
    """One traced iteration, joined with its variant's static structure.

    All arrays are parallel over op id unless noted. ``ready`` is the
    queue-enter time (when dependencies released the op), ``start`` the
    dispatch (wire/engine entry), ``end`` the finish; ``depth`` is the
    queue length observed at dispatch (including the op itself, -1 for
    ops that never queued); ``prio`` the static schedule rank (-1 when
    unprioritized); ``job`` the job index under multi-job mixes (-1 on
    single-job clusters). The chunk stream has one row per wire
    occupancy interval (op id, start, duration).
    """

    makespan: float
    start: np.ndarray
    end: np.ndarray
    ready: np.ndarray
    depth: np.ndarray
    dedicated: np.ndarray
    is_transfer: np.ndarray
    is_chunk: np.ndarray
    op_res: np.ndarray
    t_egress: np.ndarray
    t_ingress: np.ndarray
    t_chan: np.ndarray
    prio: np.ndarray
    job: np.ndarray
    chunk_op: np.ndarray
    chunk_start: np.ndarray
    chunk_dur: np.ndarray
    op_names: list
    resource_names: list
    capacity: np.ndarray
    jobs: tuple
    chan_egress: list
    chan_ingress: list
    out_of_order_handoffs: int
    succ_indptr: np.ndarray
    succ_indices: np.ndarray
    #: per-§5.1-channel ``(op_ids, expected_ranks)`` pairs (empty when
    #: enforcement is off — then there is nothing to invert).
    ooo_groups: list = field(default_factory=list)
    #: injected fault windows, name-resolved: ``(kind, entity, w0, w1,
    #: rate)`` rows where kind is ``"compute"``/``"wire"`` (empty when
    #: the variant ran fault-free). See :mod:`repro.faults`.
    fault_windows: list = field(default_factory=list)
    #: logical ``(src, dst)`` device pair per wire channel id (the fault
    #: layer's link naming; empty on pre-fault cores).
    chan_devices: list = field(default_factory=list)

    # -- construction ----------------------------------------------------
    @classmethod
    def from_record(cls, variant, record) -> "Trace":
        """Join ``record``'s event streams with ``variant``'s structure.

        Raises ``ValueError`` when the record carries no trace (run the
        variant with ``SimConfig(trace=True)``).
        """
        ev: Optional[TraceEvents] = record.trace
        if ev is None:
            raise ValueError(
                "record has no trace events; simulate with "
                "SimConfig(trace=True) (tracing is opt-in)"
            )
        core = variant.core
        g = core.cluster.graph
        names = [g.op(i).name for i in range(core.n)]
        return cls(
            makespan=record.makespan,
            start=record.start,
            end=record.end,
            ready=ev.ready,
            depth=ev.depth,
            dedicated=record.dedicated,
            is_transfer=np.asarray(core.is_transfer),
            is_chunk=np.asarray(core.is_chunk),
            op_res=np.asarray(core.op_res),
            t_egress=np.asarray(core.t_egress),
            t_ingress=np.asarray(core.t_ingress),
            t_chan=np.asarray(core.t_chan),
            prio=np.asarray(variant._prio_arr, dtype=np.int64),
            job=np.asarray(core.job_of),
            chunk_op=ev.chunk_op,
            chunk_start=ev.chunk_start,
            chunk_dur=ev.chunk_dur,
            op_names=names,
            resource_names=core.resource_names(),
            capacity=np.asarray(core.capacity),
            jobs=tuple(core.jobs),
            chan_egress=list(core.chan_eid),
            chan_ingress=list(core.chan_iid),
            out_of_order_handoffs=record.out_of_order_handoffs,
            succ_indptr=np.asarray(core.succ_indptr),
            succ_indices=np.asarray(core.succ_indices),
            ooo_groups=[(ids, ranks) for ids, ranks, _ in variant._ooo_groups],
            fault_windows=list(getattr(variant, "fault_windows", [])),
            chan_devices=list(getattr(core, "chan_devices", [])),
        )

    # -- basic views -----------------------------------------------------
    @property
    def n_ops(self) -> int:
        return len(self.start)

    @property
    def n_chunk_events(self) -> int:
        return len(self.chunk_op)

    def op_kind(self, op: int) -> str:
        if self.is_chunk[op]:
            return "chunk"
        return "transfer" if self.is_transfer[op] else "compute"

    def job_label(self, op: int) -> str:
        j = int(self.job[op])
        return self.jobs[j] if 0 <= j < len(self.jobs) else "cluster"

    def wait(self) -> np.ndarray:
        """Queue wait per op: dispatch minus queue-enter, seconds.
        NaN for ops whose queue-enter was never observed."""
        with np.errstate(invalid="ignore"):
            w = self.start - self.ready
        return np.where(np.isnan(self.ready), np.nan, np.maximum(w, 0.0))

    # -- reductions ------------------------------------------------------
    def queue_depth_histogram(self) -> dict:
        """``{"compute": {depth: count}, "transfer": {depth: count}}``
        over dispatch-time queue depths (self included, so >= 1)."""
        out: dict = {"compute": {}, "transfer": {}}
        for kind, mask in (
            ("compute", ~self.is_transfer),
            ("transfer", self.is_transfer),
        ):
            depths = self.depth[mask & (self.depth >= 0)]
            values, counts = np.unique(depths, return_counts=True)
            out[kind] = {int(v): int(c) for v, c in zip(values, counts)}
        return out

    def _nic_intervals(self) -> dict:
        """Wire occupancy intervals per NIC resource id, from the chunk
        stream (a chunk occupies both its egress and ingress NIC)."""
        by_nic: dict[int, list] = {}
        chan = self.t_chan[self.chunk_op]
        t1 = self.chunk_start + self.chunk_dur
        for i in range(len(self.chunk_op)):
            c = int(chan[i])
            row = (float(self.chunk_start[i]), float(t1[i]))
            by_nic.setdefault(self.chan_egress[c], []).append(row)
            by_nic.setdefault(self.chan_ingress[c], []).append(row)
        return {rid: np.array(rows) for rid, rows in by_nic.items()}

    def link_utilization(self, bins: int = 50) -> tuple:
        """Per-NIC utilization timeline: ``(edges, {nic_name: util})``.

        ``edges`` has ``bins + 1`` entries spanning ``[0, makespan]``;
        each util array gives the fraction of that NIC's capacity (slot
        count x bin width) occupied by wire chunks in the bin. Values
        can graze 1.0 on saturated links — that is the congestion the
        paper's Fig. 5 argues scheduling should create *less* of.
        """
        edges = np.linspace(0.0, self.makespan or 1.0, bins + 1)
        width = edges[1] - edges[0]
        out: dict[str, np.ndarray] = {}
        for rid, intervals in self._nic_intervals().items():
            busy = np.zeros(bins)
            for lo, hi in intervals:
                first = max(int(np.searchsorted(edges, lo, "right")) - 1, 0)
                last = min(int(np.searchsorted(edges, hi, "left")), bins)
                for b in range(first, last):
                    busy[b] += max(
                        0.0, min(hi, edges[b + 1]) - max(lo, edges[b])
                    )
            util = busy / (width * float(self.capacity[rid]))
            out[self.resource_names[rid]] = util
        return edges, out

    def overlap(self) -> dict:
        """Communication/computation overlap for the iteration.

        ``comm_busy_s``/``comp_busy_s`` are union lengths of wire-chunk
        and compute-op intervals; ``overlap_s`` their intersection;
        ``overlap_frac`` normalizes by the smaller of the two (1.0 =
        the scarcer phase is fully hidden behind the other).
        """
        comm = np.column_stack(
            [self.chunk_start, self.chunk_start + self.chunk_dur]
        ) if len(self.chunk_op) else np.zeros((0, 2))
        comp_ids = np.flatnonzero(~self.is_transfer)
        comp = np.column_stack([self.start[comp_ids], self.end[comp_ids]])
        comp = comp[comp[:, 1] > comp[:, 0]]
        comm_busy = _union_length(comm)
        comp_busy = _union_length(comp)
        overlap_s = _intersect_length(comm, comp)
        scarcer = min(comm_busy, comp_busy)
        return {
            "comm_busy_s": comm_busy,
            "comp_busy_s": comp_busy,
            "overlap_s": overlap_s,
            "overlap_frac": overlap_s / scarcer if scarcer > 0 else 0.0,
        }

    def critical_path(self) -> dict:
        """The latest-finishing dependency chain, with attribution.

        Walks back from the op that defines the makespan, at each step
        following the predecessor that finished last. Returns ``{"ops":
        [...], "compute_s", "comm_s", "wait_s"}`` where each op entry
        carries name/kind/start/end/busy/wait — ``wait`` being the gap
        between the chosen predecessor's finish and this op's dispatch
        (queueing + enforcement stalls). The three totals partition the
        makespan up to the first op's start offset.
        """
        n = self.n_ops
        pred_of = np.full(n, -1, dtype=np.int64)
        pred_end = np.full(n, -np.inf)
        for p in range(n):
            for s in self.succ_indices[
                self.succ_indptr[p]:self.succ_indptr[p + 1]
            ]:
                if self.end[p] > pred_end[s]:
                    pred_end[s] = self.end[p]
                    pred_of[s] = p
        path = []
        op = int(np.argmax(self.end))
        while op >= 0:
            path.append(op)
            op = int(pred_of[op])
        path.reverse()
        ops, comp_s, comm_s, wait_s = [], 0.0, 0.0, 0.0
        prev_end = None
        for op in path:
            busy = float(self.end[op] - self.start[op])
            wait = (
                max(0.0, float(self.start[op]) - prev_end)
                if prev_end is not None
                else 0.0
            )
            kind = self.op_kind(op)
            if self.is_transfer[op]:
                comm_s += busy
            else:
                comp_s += busy
            wait_s += wait
            ops.append(
                {
                    "op": op,
                    "name": self.op_names[op],
                    "kind": kind,
                    "start": float(self.start[op]),
                    "end": float(self.end[op]),
                    "busy_s": busy,
                    "wait_s": wait,
                }
            )
            prev_end = float(self.end[op])
        return {
            "ops": ops,
            "compute_s": comp_s,
            "comm_s": comm_s,
            "wait_s": wait_s,
        }

    def scheduler_diagnostics(self) -> dict:
        """Priority-inversion recount per §5.1 channel.

        Re-derives, from the traced wire-entry order, the same audit the
        engine runs (stable argsort of start times vs. expected ranks);
        ``total_inversions`` therefore equals the record's
        ``out_of_order_handoffs``. Also reports mean/max transfer queue
        wait split by prioritized vs. unprioritized transfers — the
        enforcement knob's visible effect.
        """
        per_channel = []
        total = 0
        for op_ids, ranks in self.ooo_groups:
            order = np.argsort(self.start[op_ids], kind="stable")
            inv = int(
                np.count_nonzero(
                    ranks[order] != np.arange(len(op_ids), dtype=np.int64)
                )
            )
            per_channel.append(inv)
            total += inv
        wait = self.wait()
        tmask = self.is_transfer & ~np.isnan(wait)
        pr = tmask & (self.prio >= 0)
        un = tmask & (self.prio < 0)
        def _stats(mask):
            w = wait[mask]
            if not len(w):
                return {"n": 0, "mean_wait_s": 0.0, "max_wait_s": 0.0}
            return {
                "n": int(len(w)),
                "mean_wait_s": float(w.mean()),
                "max_wait_s": float(w.max()),
            }
        return {
            "total_inversions": total,
            "per_channel_inversions": per_channel,
            "n_channels": len(per_channel),
            "prioritized": _stats(pr),
            "unprioritized": _stats(un),
        }

    def fault_impact(self) -> list:
        """Per-fault-window impact attribution, one row per window.

        Intersects each injected window with the busy intervals of the
        entity it degraded — compute-op ``[start, end]`` spans for
        compute windows, wire-chunk occupancy spans for wire windows —
        and charges ``lost_s = busy_overlap_s * (1 - rate)``: the
        capacity the window removed from the time the entity actually
        spent running under it. This proportional-overlap attribution is
        an approximation (knock-on queueing delays are not chased
        through the DAG), so the summed ``lost_s`` is a lower bound on
        the true makespan inflation. Fault-free traces return ``[]``.
        """
        rows = []
        res_index = {n: i for i, n in enumerate(self.resource_names)}
        chan_of: dict[str, list] = {}
        for c, (src, dst) in enumerate(self.chan_devices):
            chan_of.setdefault(f"{src}->{dst}", []).append(c)
        chunk_chan = (
            self.t_chan[self.chunk_op]
            if len(self.chunk_op)
            else np.zeros(0, dtype=np.int64)
        )
        for kind, entity, w0, w1, rate in self.fault_windows:
            if kind == "compute":
                rid = res_index.get(f"compute:{entity}", -1)
                mask = (~self.is_transfer) & (self.op_res == rid)
                lo, hi = self.start[mask], self.end[mask]
            else:
                chans = chan_of.get(entity, [])
                mask = np.isin(chunk_chan, chans)
                lo = self.chunk_start[mask]
                hi = lo + self.chunk_dur[mask]
            valid = ~(np.isnan(lo) | np.isnan(hi))
            lo, hi = lo[valid], hi[valid]
            ov = np.clip(np.minimum(hi, w1) - np.maximum(lo, w0), 0.0, None)
            rows.append(
                {
                    "kind": kind,
                    "entity": entity,
                    "window_start_s": float(w0),
                    "window_end_s": float(w1),
                    "rate": float(rate),
                    "busy_overlap_s": float(ov.sum()),
                    "lost_s": float(ov.sum() * (1.0 - rate)),
                    "n_ops": int(np.count_nonzero(ov > 0)),
                }
            )
        return rows

    def job_stats(self) -> list:
        """Per-job fairness view for multi-job mixes.

        One row per job: op count, span (first ready to last end),
        wire busy seconds, mean/max transfer wait, and ``starvation`` —
        the job's mean transfer wait over the cluster-wide mean (1.0 =
        fair; >> 1 = this job's transfers queue disproportionately,
        i.e. a neighbour's schedule is starving it). Single-job traces
        return one ``"cluster"`` row with starvation 1.0.
        """
        wait = self.wait()
        tmask = self.is_transfer & ~np.isnan(wait)
        overall = float(wait[tmask].mean()) if tmask.any() else 0.0
        labels = list(self.jobs) if self.jobs else ["cluster"]
        rows = []
        for j, label in enumerate(labels):
            jmask = (self.job == j) if self.jobs else np.ones(
                self.n_ops, dtype=bool
            )
            jt = jmask & tmask
            w = wait[jt]
            mean_wait = float(w.mean()) if len(w) else 0.0
            chunk_mask = jmask[self.chunk_op] if len(self.chunk_op) else (
                np.zeros(0, dtype=bool)
            )
            rows.append(
                {
                    "job": label,
                    "n_ops": int(jmask.sum()),
                    "n_transfers": int(jt.sum()),
                    "span_s": float(
                        self.end[jmask].max() - np.nanmin(self.ready[jmask])
                    )
                    if jmask.any()
                    else 0.0,
                    "wire_busy_s": float(self.chunk_dur[chunk_mask].sum()),
                    "mean_transfer_wait_s": mean_wait,
                    "max_transfer_wait_s": float(w.max()) if len(w) else 0.0,
                    "starvation": mean_wait / overall if overall > 0 else 1.0,
                }
            )
        return rows

    def to_rows(self) -> list:
        """Tidy per-op rows (CSV/DataFrame-friendly): one dict per op
        with identity, timing, queueing and scheduling columns."""
        wait = self.wait()
        rows = []
        for op in range(self.n_ops):
            rid = int(
                self.op_res[op] if self.op_res[op] >= 0 else self.t_egress[op]
            )
            rows.append(
                {
                    "op": op,
                    "name": self.op_names[op],
                    "kind": self.op_kind(op),
                    "resource": self.resource_names[rid] if rid >= 0 else "",
                    "job": self.job_label(op),
                    "ready_s": float(self.ready[op]),
                    "start_s": float(self.start[op]),
                    "end_s": float(self.end[op]),
                    "wait_s": float(wait[op]),
                    "queue_depth": int(self.depth[op]),
                    "priority": int(self.prio[op]),
                    "dedicated_s": float(self.dedicated[op]),
                }
            )
        return rows

    def summary(self) -> dict:
        """One-screen digest: makespan, overlap, critical-path split,
        inversion count, per-kind op counts."""
        cp = self.critical_path()
        ov = self.overlap()
        return {
            "makespan_s": self.makespan,
            "n_ops": self.n_ops,
            "n_transfers": int(self.is_transfer.sum()),
            "n_chunk_events": int(len(self.chunk_op)),
            "critical_compute_s": cp["compute_s"],
            "critical_comm_s": cp["comm_s"],
            "critical_wait_s": cp["wait_s"],
            "overlap_frac": ov["overlap_frac"],
            "priority_inversions": self.out_of_order_handoffs,
            "n_jobs": len(self.jobs) or 1,
        }
