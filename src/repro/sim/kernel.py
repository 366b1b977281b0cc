"""Standalone event-loop kernel: the ``SimVariant`` hot loop over flat arrays.

The engine's inner loop exists in two interchangeable implementations
behind one seam (selected via ``SimConfig.kernel`` / the
``REPRO_ENGINE_KERNEL`` environment variable, default ``auto``):

* ``python`` — the tuned pure-Python loop living in
  :meth:`repro.sim.engine.SimVariant._execute` (always available);
* ``numba`` — this module's array-native kernel compiled with
  ``@njit(cache=True)``. Requires the optional ``numba`` dependency
  (``pip install .[fast]``); ``auto`` falls back to ``python`` when it is
  missing. ``portable`` selects the same array kernel but never requires
  numba: it is identical to ``numba`` where numba is installed and runs
  the same functions uncompiled (slowly) elsewhere — so the array code
  path stays testable on every host.

Both implementations are **bit-exact**: same event order, same
floating-point operation order, and the same RNG stream per
``(seed, iteration)`` as ``numpy.random.Generator``. The kernel cannot
call back into a ``Generator``, so it consumes a pre-drawn buffer of raw
PCG64 ``uint64`` outputs and re-implements exactly the two consumers the
loop uses (see ``tests/sim/test_kernel_parity.py`` which pins both
against numpy):

* ``Generator.random()`` — one raw draw: ``(u64 >> 11) * 2**-53``;
* ``Generator.integers(0, total)`` (int64 dtype, ``total < 2**32``) —
  numpy's buffered 32-bit Lemire rejection: raw ``uint64`` draws are
  split low-half-first into ``uint32`` words (the PCG64
  ``has_uint32``/``uinteger`` buffer), and ``m = u32 * total`` is
  rejected while ``low32(m) < (2**32 - total) % total``.

If the buffer runs dry (rejection sampling consumes a variable number of
words) the kernel aborts with a status code and the caller re-runs it
with a longer buffer — iterations are pure functions of their inputs, so
the re-run is bit-identical.

Everything the kernel touches is a flat numpy array; the CSR/slot
layouts are compiled once per :class:`~repro.sim.engine.CompiledCore` /
:class:`~repro.sim.engine.SimVariant` (``core_tables`` /
``variant_tables``) and shared by every iteration. Each iteration is one
kernel call: :meth:`~repro.sim.engine.SimVariant.iter_iterations` draws
the iteration's jitter, then hands it to :func:`execute_event_loop`
through :meth:`~repro.sim.engine.SimVariant._execute_kernel`, traced or
not.
"""

from __future__ import annotations

import os

import numpy as np

#: numba is an optional dependency: never imported at package import
#: time beyond this guarded probe, never required for the fallback.
try:  # pragma: no cover - exercised only where numba is installed
    from numba import njit as _njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - the common container case
    HAVE_NUMBA = False

    def _njit(**kwargs):
        def wrap(fn):
            return fn

        return wrap


def kernel_func(fn):
    """Decorator applied to every kernel function: ``@njit(cache=True)``
    when numba is importable, identity otherwise (the ``portable`` mode
    and numba-less hosts run the same source uncompiled)."""
    return _njit(cache=True)(fn)


#: user-facing kernel names accepted by SimConfig.kernel / the env var.
KERNELS = ("auto", "python", "numba", "portable")

ENV_VAR = "REPRO_ENGINE_KERNEL"

# kernel exit statuses
_OK = 0
_RAW_EXHAUSTED = 1
_HEAP_OVERFLOW = 2
_TRACE_OVERFLOW = 3

# scalar-state slots (st int64 array)
_SEQ = 0
_STAMP = 1
_FABRIC = 2
_HEAP_LEN = 3
_STATUS = 4
#: chunk-trace write cursor (next free slot of the tce_* arrays).
_TRACE = 5

_U32_MASK = np.uint64(0xFFFFFFFF)
_U64_INV53 = 1.0 / 9007199254740992.0  # 2**-53


def _did_you_mean(value: str, known) -> str:
    """The standard suggestion suffix used across the CLI surfaces."""
    import difflib

    hints = difflib.get_close_matches(value, list(known), n=1)
    return f" — did you mean {hints[0]!r}?" if hints else ""


def resolve(name: str) -> str:
    """Resolve a configured kernel name to an implementation name.

    ``auto`` consults ``REPRO_ENGINE_KERNEL`` and falls back to numba
    when importable, else python. Requesting ``numba`` explicitly on a
    host without numba raises (CI leans on this to fail loudly instead
    of silently regressing to the fallback)."""
    if name == "auto":
        env = os.environ.get(ENV_VAR, "").strip()
        if env:
            if env not in KERNELS:
                raise ValueError(
                    f"{ENV_VAR}={env!r} is not one of {KERNELS}"
                    + _did_you_mean(env, KERNELS)
                )
            name = env
    if name == "auto":
        return "numba" if HAVE_NUMBA else "python"
    if name == "numba" and not HAVE_NUMBA:
        raise RuntimeError(
            "kernel 'numba' was requested explicitly but numba is not "
            "importable; install the optional dependency "
            "(pip install 'tictac-repro[fast]') or use kernel 'auto'/"
            "'python'"
        )
    if name not in KERNELS or name == "auto":
        raise ValueError(f"unknown engine kernel {name!r}; expected one of {KERNELS}")
    return name


def loop_for(resolved: str):
    """The event-loop callable for a resolved kernel name, or ``None``
    when the engine should use its built-in python loop."""
    if resolved == "python":
        return None
    # 'numba' and 'portable' share one callable: _event_loop is jitted
    # at module level when numba is present, plain otherwise.
    return _event_loop


# ----------------------------------------------------------------------
# compiled tables
# ----------------------------------------------------------------------
class CoreTables:
    """Schedule-independent kernel arrays of one ``CompiledCore``."""

    def __init__(self, core) -> None:
        n = core.n
        self.n = n
        self.succ_indptr = np.ascontiguousarray(core.succ_indptr, dtype=np.int64)
        self.succ_indices = np.ascontiguousarray(core.succ_indices, dtype=np.int64)
        self.base_indeg = np.ascontiguousarray(core.base_indeg, dtype=np.int64)
        self.is_transfer = core.is_transfer.astype(np.uint8)
        self.is_chunk = core.is_chunk.astype(np.uint8)
        self.op_res = np.ascontiguousarray(core.op_res, dtype=np.int64)
        self.t_egress = np.ascontiguousarray(core.t_egress, dtype=np.int64)
        self.t_ingress = np.ascontiguousarray(core.t_ingress, dtype=np.int64)
        self.t_chan = np.ascontiguousarray(core.t_chan, dtype=np.int64)
        self.lat = np.ascontiguousarray(core.lat, dtype=np.float64)
        self.capacity = np.ascontiguousarray(core.capacity, dtype=np.int64)
        self.chan_iid = np.array(core.chan_iid, dtype=np.int64)
        self.eg_pos = np.array(core.eg_pos, dtype=np.int64)
        self.egress_ids = np.array(core.egress_ids, dtype=np.int64)
        self.eg_chan_indptr = np.zeros(len(core.eg_chan_lists) + 1, dtype=np.int64)
        np.cumsum(
            [len(chans) for chans in core.eg_chan_lists],
            out=self.eg_chan_indptr[1:],
        )
        self.eg_chan_indices = np.array(
            [c for chans in core.eg_chan_lists for c in chans], dtype=np.int64
        )
        self.q_base = np.array(core.q_base, dtype=np.int64)
        self.roots = np.array(core.roots, dtype=np.int64)
        self.root_times = np.ascontiguousarray(core.root_times, dtype=np.float64)
        # plain compute queues: each resource holds at most its own
        # compute-op count at once (every op is enqueued exactly once).
        counts = np.bincount(
            core.op_res[~core.is_transfer], minlength=core.n_res
        ).astype(np.int64)
        self.pq_base = np.zeros(core.n_res + 1, dtype=np.int64)
        np.cumsum(counts, out=self.pq_base[1:])
        # in-heap events are bounded by pending latency tails (<= n) plus
        # concurrently active compute/chunk slots (<= sum of capacities)
        # plus deferred job-mix root arrivals (<= root count).
        self.heap_cap = int(
            n + int(self.capacity.sum()) + self.roots.shape[0] + 64
        )
        #: initial raw-uint64 budget per iteration; the kernel aborts and
        #: the caller doubles it in the (rare) rejection-heavy case.
        self.raw_init = 4 * n + 1024


def _window_csr(windows):
    """CSR-pack per-entity fault window lists (ISSUE 9): ``windows`` is
    one entry per compute resource / wire channel, each ``None`` or a
    sorted ``[(w0, w1, rate), ...]``. Returns (indptr, w0, w1, rate);
    an all-``None`` input packs to all-empty rows — the kernels then
    take the literal fault-free branches."""
    indptr = np.zeros(len(windows) + 1, dtype=np.int64)
    np.cumsum(
        [0 if ws is None else len(ws) for ws in windows], out=indptr[1:]
    )
    total = int(indptr[-1])
    w0 = np.zeros(total, dtype=np.float64)
    w1 = np.zeros(total, dtype=np.float64)
    rate = np.zeros(total, dtype=np.float64)
    i = 0
    for ws in windows:
        if ws:
            for a, b, r in ws:
                w0[i] = a
                w1[i] = b
                rate[i] = r
                i += 1
    return indptr, w0, w1, rate


class VariantTables:
    """Schedule/config-dependent kernel arrays of one ``SimVariant``."""

    def __init__(self, variant) -> None:
        core = variant.core
        cfg = variant.config
        self.hg_ch = np.array(variant._hg_ch, dtype=np.int64)
        self.hg_rank = np.array(variant._hg_rank, dtype=np.int64)
        self.dg_ch = np.array(variant._dg_ch, dtype=np.int64)
        self.dg_rank = np.array(variant._dg_rank, dtype=np.int64)
        self.prio = np.array(variant._prio_arr, dtype=np.int64)
        self.rc_indptr = np.zeros(core.n_res + 1, dtype=np.int64)
        np.cumsum(
            [len(chans) for chans in variant._res_channels],
            out=self.rc_indptr[1:],
        )
        self.rc_indices = np.array(
            [c for chans in variant._res_channels for c in chans], dtype=np.int64
        )
        self.gs_base = np.zeros(variant.n_channels + 1, dtype=np.int64)
        np.cumsum(variant._chan_size, out=self.gs_base[1:])
        self.mode = ("sender", "ready_queue", "dag", "none").index(cfg.enforcement)
        self.noise = float(cfg.grpc_reorder_prob) if cfg.enforcement == "sender" else 0.0
        self.fabric_cap = -1 if cfg.fabric_slots is None else int(cfg.fabric_slots)
        self.random_compute = cfg.compute_queue == "random"
        self.has_dag = bool(variant.dag_gate)
        self.has_prio = bool(variant.prio)
        # fault-window CSRs (ISSUE 9): empty rows for unfaulted entities.
        self.fc_indptr, self.fc_w0, self.fc_w1, self.fc_rate = _window_csr(
            variant._fault_comp
        )
        self.fw_indptr, self.fw_w0, self.fw_w1, self.fw_rate = _window_csr(
            variant._fault_wire
        )


def core_tables(core) -> CoreTables:
    """The (cached) kernel table set of a compiled core."""
    tables = getattr(core, "_kernel_tables", None)
    if tables is None:
        tables = core._kernel_tables = CoreTables(core)
    return tables


def variant_tables(variant) -> VariantTables:
    tables = getattr(variant, "_kernel_variant_tables", None)
    if tables is None:
        tables = variant._kernel_variant_tables = VariantTables(variant)
    return tables


# ----------------------------------------------------------------------
# RNG: numpy.random.Generator re-implemented over a raw PCG64 stream
# ----------------------------------------------------------------------
@kernel_func
def _rng_random(raw, rsi, st):
    """``Generator.random()``: one raw uint64, top 53 bits. Ignores (and
    preserves) the 32-bit half-word buffer, exactly like numpy's
    ``next_double``."""
    pos = rsi[0]
    if pos >= raw.shape[0]:
        st[_STATUS] = _RAW_EXHAUSTED
        return 0.0
    v = raw[pos]
    rsi[0] = pos + 1
    return float(v >> np.uint64(11)) * _U64_INV53


@kernel_func
def _next32(raw, rsi, rsu, st):
    """PCG64's ``next_uint32``: raw uint64 draws handed out low half
    first, high half stashed (the ``has_uint32`` buffer)."""
    if rsi[1] == 1:
        rsi[1] = 0
        return rsu[0]
    pos = rsi[0]
    if pos >= raw.shape[0]:
        st[_STATUS] = _RAW_EXHAUSTED
        return np.uint64(0)
    v = raw[pos]
    rsi[0] = pos + 1
    rsi[1] = 1
    rsu[0] = v >> np.uint64(32)
    return v & _U32_MASK


@kernel_func
def _rng_integers(raw, rsi, rsu, st, total):
    """``Generator.integers(0, total)`` for ``2 <= total < 2**32``:
    numpy's buffered 32-bit Lemire rejection (``distributions.c``)."""
    rng = np.uint64(total - 1)
    rng_excl = rng + np.uint64(1)
    m = _next32(raw, rsi, rsu, st) * rng_excl
    leftover = m & _U32_MASK
    if leftover < rng_excl:
        threshold = (_U32_MASK - rng) % rng_excl
        while leftover < threshold:
            if st[_STATUS] != _OK:
                return np.int64(0)
            m = _next32(raw, rsi, rsu, st) * rng_excl
            leftover = m & _U32_MASK
    return np.int64(m >> np.uint64(32))


# ----------------------------------------------------------------------
# binary heap over parallel arrays, ordered by (time, seq)
# ----------------------------------------------------------------------
@kernel_func
def _heap_push(ht, hseq, hcode, hop, st, t, code, op):
    i = st[_HEAP_LEN]
    seq = st[_SEQ]
    st[_SEQ] = seq + 1
    if i >= ht.shape[0]:
        st[_STATUS] = _HEAP_OVERFLOW
        return
    ht[i] = t
    hseq[i] = seq
    hcode[i] = code
    hop[i] = op
    st[_HEAP_LEN] = i + 1
    while i > 0:
        p = (i - 1) >> 1
        if ht[i] < ht[p] or (ht[i] == ht[p] and hseq[i] < hseq[p]):
            ht[i], ht[p] = ht[p], ht[i]
            hseq[i], hseq[p] = hseq[p], hseq[i]
            hcode[i], hcode[p] = hcode[p], hcode[i]
            hop[i], hop[p] = hop[p], hop[i]
            i = p
        else:
            break


@kernel_func
def _heap_pop(ht, hseq, hcode, hop, st):
    t = ht[0]
    code = hcode[0]
    op = hop[0]
    n = st[_HEAP_LEN] - 1
    st[_HEAP_LEN] = n
    if n > 0:
        ht[0] = ht[n]
        hseq[0] = hseq[n]
        hcode[0] = hcode[n]
        hop[0] = hop[n]
        i = 0
        while True:
            left = 2 * i + 1
            if left >= n:
                break
            c = left
            right = left + 1
            if right < n and (
                ht[right] < ht[left]
                or (ht[right] == ht[left] and hseq[right] < hseq[left])
            ):
                c = right
            if ht[c] < ht[i] or (ht[c] == ht[i] and hseq[c] < hseq[i]):
                ht[i], ht[c] = ht[c], ht[i]
                hseq[i], hseq[c] = hseq[c], hseq[i]
                hcode[i], hcode[c] = hcode[c], hcode[i]
                hop[i], hop[c] = hop[c], hop[i]
                i = c
            else:
                break
    return t, code, op


# ----------------------------------------------------------------------
# fault-window evaluators (ISSUE 9): CSR translations of the engine's
# _compute_fault_end/_chunk_fault_end — KEEP the float-op order IN SYNC
# with repro.sim.engine, bit-exactness across kernels depends on it.
# ----------------------------------------------------------------------
@kernel_func
def _compute_fault_end(t, work, fw0, fw1, frate, lo, hi):
    """Finish time of ``work`` compute seconds started at ``t`` under
    the sorted disjoint windows ``[lo, hi)`` of the fault CSR; rate 0
    stalls (work resumes at window end)."""
    cur = t
    rem = work
    for i in range(lo, hi):
        w1 = fw1[i]
        if w1 <= cur:
            continue
        w0 = fw0[i]
        if w0 > cur:
            gap = w0 - cur
            if rem <= gap:
                return cur + rem
            rem -= gap
            cur = w0
        rate = frate[i]
        if rate <= 0.0:
            cur = w1
            continue
        cap = (w1 - cur) * rate
        if rem <= cap:
            return cur + rem / rate
        rem -= cap
        cur = w1
    return cur + rem


@kernel_func
def _chunk_fault_end(t, work, fw0, fw1, frate, lo, hi):
    """Like ``_compute_fault_end`` for one wire chunk: a zero-rate
    (outage) window loses the in-flight chunk, which retransmits from
    scratch at window end."""
    cur = t
    rem = work
    for i in range(lo, hi):
        w1 = fw1[i]
        if w1 <= cur:
            continue
        w0 = fw0[i]
        if w0 > cur:
            gap = w0 - cur
            if rem <= gap:
                return cur + rem
            rem -= gap
            cur = w0
        rate = frate[i]
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


# ----------------------------------------------------------------------
# dispatchers (exact array translations of SimVariant._execute's inner
# functions — any semantic edit must land in both; the golden + parity
# suites pin them against each other)
# ----------------------------------------------------------------------
@kernel_func
def _pop_plain(pq_buf, pq_stamp, pq_len, base, rid, m):
    op = pq_buf[base + m]
    last = pq_len[rid] - 1
    for i in range(m, last):
        pq_buf[base + i] = pq_buf[base + i + 1]
        pq_stamp[base + i] = pq_stamp[base + i + 1]
    pq_len[rid] = last
    return op


@kernel_func
def _dispatch_compute(
    rid, t, random_compute,
    capacity, active,
    pq_base, pq_buf, pq_stamp, pq_len,
    rc_indptr, rc_indices,
    gs_base, gs_stamp, gs_op, ch_handoff,
    elig_stamp, elig_ch,
    fc_indptr, fc_w0, fc_w1, fc_rate,
    dur, start,
    ht, hseq, hcode, hop, st,
    raw, rsi, rsu,
    tr_on, tr_depth,
):
    if active[rid] >= capacity[rid]:
        return
    c0 = rc_indptr[rid]
    c1 = rc_indptr[rid + 1]
    base = pq_base[rid]
    n_plain = pq_len[rid]
    if c1 > c0:
        # §5.1 eligibility: per counter channel, the one parked
        # activation whose rank equals the channel counter.
        n_elig = 0
        for j in range(c0, c1):
            ch = rc_indices[j]
            r = ch_handoff[ch]
            g0 = gs_base[ch]
            if r < gs_base[ch + 1] - g0 and gs_stamp[g0 + r] >= 0:
                elig_stamp[n_elig] = gs_stamp[g0 + r]
                elig_ch[n_elig] = ch
                n_elig += 1
        total = n_plain + n_elig
        if total == 0:
            return
        if random_compute and total > 1:
            m = _rng_integers(raw, rsi, rsu, st, total)
        else:
            m = np.int64(0)
        if n_elig == 0:
            op = _pop_plain(pq_buf, pq_stamp, pq_len, base, rid, m)
        else:
            if n_elig > 1:
                # insertion sort by arrival stamp (stamps are unique)
                for a in range(1, n_elig):
                    ks = elig_stamp[a]
                    kc = elig_ch[a]
                    b = a - 1
                    while b >= 0 and elig_stamp[b] > ks:
                        elig_stamp[b + 1] = elig_stamp[b]
                        elig_ch[b + 1] = elig_ch[b]
                        b -= 1
                    elig_stamp[b + 1] = ks
                    elig_ch[b + 1] = kc
            # m-th element of the stamp-ordered union of the (sorted)
            # plain queue and the eligible gated activations.
            op = np.int64(-1)
            for e in range(n_elig):
                stamp_e = elig_stamp[e]
                lo = np.int64(0)
                hi = n_plain
                while lo < hi:
                    mid = (lo + hi) >> 1
                    if pq_stamp[base + mid] < stamp_e:
                        lo = mid + 1
                    else:
                        hi = mid
                pos = e + lo
                if pos == m:
                    ch = elig_ch[e]
                    r = ch_handoff[ch]
                    op = gs_op[gs_base[ch] + r]
                    gs_stamp[gs_base[ch] + r] = -1
                    ch_handoff[ch] = r + 1
                    break
                if pos > m:
                    op = _pop_plain(pq_buf, pq_stamp, pq_len, base, rid, m - e)
                    break
            if op < 0:
                op = _pop_plain(pq_buf, pq_stamp, pq_len, base, rid, m - n_elig)
    else:
        total = n_plain
        if n_plain == 0:
            return
        if random_compute and n_plain > 1:
            m = _rng_integers(raw, rsi, rsu, st, n_plain)
        else:
            m = np.int64(0)
        op = _pop_plain(pq_buf, pq_stamp, pq_len, base, rid, m)
    active[rid] += 1
    if tr_on:
        tr_depth[op] = total
    start[op] = t
    if fc_indptr[rid + 1] > fc_indptr[rid]:
        cend = _compute_fault_end(
            t, dur[op], fc_w0, fc_w1, fc_rate,
            fc_indptr[rid], fc_indptr[rid + 1],
        )
    else:
        cend = t + dur[op]
    _heap_push(ht, hseq, hcode, hop, st, cend, 0, op)


@kernel_func
def _dispatch_egress(
    pos, t, mode, has_dag, has_prio, fabric_cap,
    capacity, active,
    egress_ids, eg_chan_indptr, eg_chan_indices,
    chan_iid, q_base, qbuf, q_head, q_tail, ch_busy,
    rr_ptr, eg_pending,
    prio, dg_ch, dg_rank, ch_complete,
    started, rem_wire, chunk_of, lat, is_chunk,
    fw_indptr, fw_w0, fw_w1, fw_rate,
    start,
    ht, hseq, hcode, hop, st,
    raw, rsi, rsu,
    tr_on, tr_depth, tce_op, tce_t0, tce_dur,
):
    if eg_pending[pos] == 0:
        return
    e0 = eg_chan_indptr[pos]
    n_chans = eg_chan_indptr[pos + 1] - e0
    eid = egress_ids[pos]
    while active[eid] < capacity[eid] and (
        fabric_cap < 0 or st[_FABRIC] < fabric_cap
    ):
        ptr = rr_ptr[pos]
        progressed = False
        for step in range(n_chans):
            slot = ptr + step
            if slot >= n_chans:
                slot -= n_chans
            c = eg_chan_indices[e0 + slot]
            iid = chan_iid[c]
            if active[iid] >= capacity[iid] or ch_busy[c] == 1:
                continue
            h = q_head[c]
            tl = q_tail[c]
            if h == tl:
                continue
            qb = q_base[c]
            # pick_head: which queued transfer transmits next on this
            # channel (started transfers keep it until wire-done).
            q0 = qbuf[qb + h]
            if started[q0] == 1:
                k = np.int64(0)
            elif has_prio and (mode == 1 or is_chunk[q0] == 1):
                qlen = tl - h
                lowest = np.int64(-1)
                for i in range(qlen):
                    p = prio[qbuf[qb + h + i]]
                    if p >= 0 and (lowest < 0 or p < lowest):
                        lowest = p
                ncand = np.int64(0)
                for i in range(qlen):
                    p = prio[qbuf[qb + h + i]]
                    if lowest < 0 or p < 0 or p == lowest:
                        ncand += 1
                if ncand > 1:
                    m = _rng_integers(raw, rsi, rsu, st, ncand)
                else:
                    m = np.int64(0)
                k = np.int64(0)
                cnt = np.int64(0)
                for i in range(qlen):
                    p = prio[qbuf[qb + h + i]]
                    if lowest < 0 or p < 0 or p == lowest:
                        if cnt == m:
                            k = np.int64(i)
                            break
                        cnt += 1
            elif mode == 3 and tl - h > 1:
                k = _rng_integers(raw, rsi, rsu, st, tl - h)
            elif mode == 2 and has_dag:
                k = np.int64(-1)
                for i in range(tl - h):
                    op2 = qbuf[qb + h + i]
                    c2 = dg_ch[op2]
                    if c2 < 0 or ch_complete[c2] == dg_rank[op2]:
                        k = np.int64(i)
                        break
                if k < 0:
                    continue
            else:
                k = np.int64(0)
            if k != 0:
                i1 = qb + h
                i2 = i1 + k
                tmp = qbuf[i1]
                qbuf[i1] = qbuf[i2]
                qbuf[i2] = tmp
            op = qbuf[qb + h]
            if started[op] == 0:
                started[op] = 1
                start[op] = t
                if tr_on:
                    tr_depth[op] = tl - h
            r = rem_wire[op]
            co = chunk_of[op]
            if r < co:
                cdur = r
            else:
                cdur = co
            r -= cdur
            rem_wire[op] = r
            # fault windows stretch wall time only; the nominal rem_wire
            # decrement above keeps payload bytes conserved.
            faulted = fw_indptr[c + 1] > fw_indptr[c]
            if faulted:
                cend = _chunk_fault_end(
                    t, cdur, fw_w0, fw_w1, fw_rate,
                    fw_indptr[c], fw_indptr[c + 1],
                )
            else:
                cend = t + cdur
            if r <= 1e-18:
                q_head[c] = h + 1  # wire done; channel moves on
                eg_pending[pos] -= 1
                _heap_push(ht, hseq, hcode, hop, st, cend + lat[op], 1, op)
            if tr_on:
                ci = st[_TRACE]
                if ci >= tce_op.shape[0]:
                    st[_STATUS] = _TRACE_OVERFLOW
                    return
                tce_op[ci] = op
                tce_t0[ci] = t
                # nominal cdur when unfaulted: (cend - t) would differ
                # in the last float bit from the untraced arithmetic.
                if faulted:
                    tce_dur[ci] = cend - t
                else:
                    tce_dur[ci] = cdur
                st[_TRACE] = ci + 1
            active[eid] += 1
            active[iid] += 1
            st[_FABRIC] += 1
            ch_busy[c] = 1
            _heap_push(ht, hseq, hcode, hop, st, cend, 2, op)
            rr_ptr[pos] = slot + 1
            progressed = True
            break
        if not progressed:
            return


@kernel_func
def _make_ready(
    op, t, mode, has_dag, has_prio, random_compute, noise, fabric_cap,
    is_transfer, is_chunk, op_res, t_egress, t_chan, lat,
    capacity, active,
    hg_ch, hg_rank, dg_ch, dg_rank, prio,
    eg_pos, egress_ids, eg_chan_indptr, eg_chan_indices, chan_iid,
    q_base, qbuf, q_head, q_tail, ch_busy, rr_ptr, eg_pending,
    pq_base, pq_buf, pq_stamp, pq_len,
    rc_indptr, rc_indices,
    gs_base, gs_stamp, gs_op, ch_handoff, ch_complete,
    elig_stamp, elig_ch,
    started, rem_wire, chunk_of, dur, start,
    fc_indptr, fc_w0, fc_w1, fc_rate,
    fw_indptr, fw_w0, fw_w1, fw_rate,
    ht, hseq, hcode, hop, st,
    raw, rsi, rsu,
    tr_on, tr_ready, tr_depth, tce_op, tce_t0, tce_dur,
):
    if tr_on:
        tr_ready[op] = t
    if is_transfer[op] == 1:
        c = t_chan[op]
        qb = q_base[c]
        tl = q_tail[c]
        qbuf[qb + tl] = op
        tl += 1
        q_tail[c] = tl
        # residual gRPC reordering: occasionally a hand-off slips a slot
        if noise > 0.0 and tl - q_head[c] >= 2:
            if _rng_random(raw, rsi, st) < noise:
                i1 = qb + tl - 1
                i2 = i1 - 1
                tmp = qbuf[i1]
                qbuf[i1] = qbuf[i2]
                qbuf[i2] = tmp
        pos = eg_pos[t_egress[op]]
        eg_pending[pos] += 1
        _dispatch_egress(
            pos, t, mode, has_dag, has_prio, fabric_cap,
            capacity, active,
            egress_ids, eg_chan_indptr, eg_chan_indices,
            chan_iid, q_base, qbuf, q_head, q_tail, ch_busy,
            rr_ptr, eg_pending,
            prio, dg_ch, dg_rank, ch_complete,
            started, rem_wire, chunk_of, lat, is_chunk,
            fw_indptr, fw_w0, fw_w1, fw_rate,
            start,
            ht, hseq, hcode, hop, st,
            raw, rsi, rsu,
            tr_on, tr_depth, tce_op, tce_t0, tce_dur,
        )
    else:
        rid = op_res[op]
        ch = hg_ch[op]
        if ch >= 0:
            g = gs_base[ch] + hg_rank[op]
            gs_stamp[g] = st[_STAMP]
            gs_op[g] = op
            st[_STAMP] += 1
        elif rc_indptr[rid + 1] > rc_indptr[rid]:
            b = pq_base[rid] + pq_len[rid]
            pq_buf[b] = op
            pq_stamp[b] = st[_STAMP]
            pq_len[rid] += 1
            st[_STAMP] += 1
        else:
            # resources with no §5.1 channels never merge against gated
            # activations; their arrivals skip the stamp counter.
            b = pq_base[rid] + pq_len[rid]
            pq_buf[b] = op
            pq_stamp[b] = 0
            pq_len[rid] += 1
        _dispatch_compute(
            rid, t, random_compute,
            capacity, active,
            pq_base, pq_buf, pq_stamp, pq_len,
            rc_indptr, rc_indices,
            gs_base, gs_stamp, gs_op, ch_handoff,
            elig_stamp, elig_ch,
            fc_indptr, fc_w0, fc_w1, fc_rate,
            dur, start,
            ht, hseq, hcode, hop, st,
            raw, rsi, rsu,
            tr_on, tr_depth,
        )


@kernel_func
def _event_loop(
    # core tables
    succ_indptr, succ_indices, base_indeg,
    is_transfer, is_chunk, op_res, t_egress, t_ingress, t_chan, lat,
    capacity, chan_iid, eg_pos, egress_ids,
    eg_chan_indptr, eg_chan_indices, q_base, roots, root_times, pq_base,
    # variant tables
    hg_ch, hg_rank, dg_ch, dg_rank, prio,
    rc_indptr, rc_indices, gs_base,
    mode, noise, fabric_cap, random_compute, has_dag, has_prio,
    fc_indptr, fc_w0, fc_w1, fc_rate,
    fw_indptr, fw_w0, fw_w1, fw_rate,
    # per-iteration inputs
    dur, wire, chunk_of, raw, heap_cap,
    # trace outputs (repro.obs; 0-size dummies when tr_on is False)
    tr_on, tr_ready, tr_depth, tce_op, tce_t0, tce_dur,
):
    n = op_res.shape[0]
    n_res = capacity.shape[0]
    n_chan = chan_iid.shape[0]
    n_eg = egress_ids.shape[0]
    n_cch = gs_base.shape[0] - 1

    indeg = base_indeg.copy()
    start = np.full(n, np.nan)
    end = np.full(n, np.nan)
    active = np.zeros(n_res, np.int64)
    pq_buf = np.zeros(pq_base[n_res], np.int64)
    pq_stamp = np.zeros(pq_base[n_res], np.int64)
    pq_len = np.zeros(n_res, np.int64)
    gs_stamp = np.full(gs_base[n_cch], -1, np.int64)
    gs_op = np.zeros(gs_base[n_cch], np.int64)
    ch_handoff = np.zeros(n_cch, np.int64)
    ch_complete = np.zeros(n_cch, np.int64)
    qbuf = np.zeros(q_base[n_chan], np.int64)
    q_head = np.zeros(n_chan, np.int64)
    q_tail = np.zeros(n_chan, np.int64)
    ch_busy = np.zeros(n_chan, np.uint8)
    rr_ptr = np.zeros(n_eg, np.int64)
    eg_pending = np.zeros(n_eg, np.int64)
    rem_wire = wire.copy()
    started = np.zeros(n, np.uint8)
    elig_stamp = np.zeros(n_cch + 1, np.int64)
    elig_ch = np.zeros(n_cch + 1, np.int64)
    ht = np.zeros(heap_cap, np.float64)
    hseq = np.zeros(heap_cap, np.int64)
    hcode = np.zeros(heap_cap, np.int64)
    hop = np.zeros(heap_cap, np.int64)
    st = np.zeros(8, np.int64)
    rsi = np.zeros(2, np.int64)  # (raw position, has_uint32)
    rsu = np.zeros(1, np.uint64)  # stashed high half-word

    for ri in range(roots.shape[0]):
        # deferred job-mix roots release via code-3 events; zero-offset
        # roots keep the direct path (no heap entry, no seq consumed).
        if root_times[ri] > 0.0:
            _heap_push(ht, hseq, hcode, hop, st, root_times[ri], 3, roots[ri])
            if st[_STATUS] != _OK:
                return st[_STATUS], start, end, st[_TRACE]
            continue
        _make_ready(
            roots[ri], 0.0, mode, has_dag, has_prio, random_compute, noise,
            fabric_cap,
            is_transfer, is_chunk, op_res, t_egress, t_chan, lat,
            capacity, active,
            hg_ch, hg_rank, dg_ch, dg_rank, prio,
            eg_pos, egress_ids, eg_chan_indptr, eg_chan_indices, chan_iid,
            q_base, qbuf, q_head, q_tail, ch_busy, rr_ptr, eg_pending,
            pq_base, pq_buf, pq_stamp, pq_len,
            rc_indptr, rc_indices,
            gs_base, gs_stamp, gs_op, ch_handoff, ch_complete,
            elig_stamp, elig_ch,
            started, rem_wire, chunk_of, dur, start,
            fc_indptr, fc_w0, fc_w1, fc_rate,
            fw_indptr, fw_w0, fw_w1, fw_rate,
            ht, hseq, hcode, hop, st,
            raw, rsi, rsu,
            tr_on, tr_ready, tr_depth, tce_op, tce_t0, tce_dur,
        )
        if st[_STATUS] != _OK:
            return st[_STATUS], start, end, st[_TRACE]

    while st[_HEAP_LEN] > 0:
        if st[_STATUS] != _OK:
            return st[_STATUS], start, end, st[_TRACE]
        t, code, op = _heap_pop(ht, hseq, hcode, hop, st)
        if code == 2:  # chunk done
            eid = t_egress[op]
            iid = t_ingress[op]
            active[eid] -= 1
            active[iid] -= 1
            st[_FABRIC] -= 1
            ch_busy[t_chan[op]] = 0
            pos = eg_pos[eid]
            _dispatch_egress(
                pos, t, mode, has_dag, has_prio, fabric_cap,
                capacity, active,
                egress_ids, eg_chan_indptr, eg_chan_indices,
                chan_iid, q_base, qbuf, q_head, q_tail, ch_busy,
                rr_ptr, eg_pending,
                prio, dg_ch, dg_rank, ch_complete,
                started, rem_wire, chunk_of, lat, is_chunk,
                fw_indptr, fw_w0, fw_w1, fw_rate,
                start,
                ht, hseq, hcode, hop, st,
                raw, rsi, rsu,
                tr_on, tr_depth, tce_op, tce_t0, tce_dur,
            )
            # the freed ingress (or fabric slot) may unblock transfers
            # queued at other NICs
            if active[iid] < capacity[iid] or fabric_cap >= 0:
                for other in range(n_eg):
                    if other != pos and eg_pending[other] > 0:
                        _dispatch_egress(
                            other, t, mode, has_dag, has_prio, fabric_cap,
                            capacity, active,
                            egress_ids, eg_chan_indptr, eg_chan_indices,
                            chan_iid, q_base, qbuf, q_head, q_tail, ch_busy,
                            rr_ptr, eg_pending,
                            prio, dg_ch, dg_rank, ch_complete,
                            started, rem_wire, chunk_of, lat, is_chunk,
                            fw_indptr, fw_w0, fw_w1, fw_rate,
                            start,
                            ht, hseq, hcode, hop, st,
                            raw, rsi, rsu,
                            tr_on, tr_depth, tce_op, tce_t0, tce_dur,
                        )
            continue
        if code == 3:  # deferred root arrival (job-mix offsets)
            _make_ready(
                op, t, mode, has_dag, has_prio, random_compute, noise,
                fabric_cap,
                is_transfer, is_chunk, op_res, t_egress, t_chan, lat,
                capacity, active,
                hg_ch, hg_rank, dg_ch, dg_rank, prio,
                eg_pos, egress_ids, eg_chan_indptr, eg_chan_indices,
                chan_iid,
                q_base, qbuf, q_head, q_tail, ch_busy, rr_ptr, eg_pending,
                pq_base, pq_buf, pq_stamp, pq_len,
                rc_indptr, rc_indices,
                gs_base, gs_stamp, gs_op, ch_handoff, ch_complete,
                elig_stamp, elig_ch,
                started, rem_wire, chunk_of, dur, start,
                fc_indptr, fc_w0, fc_w1, fc_rate,
                fw_indptr, fw_w0, fw_w1, fw_rate,
                ht, hseq, hcode, hop, st,
                raw, rsi, rsu,
                tr_on, tr_ready, tr_depth, tce_op, tce_t0, tce_dur,
            )
            continue
        end[op] = t
        if code == 0:  # compute done
            rid = op_res[op]
            active[rid] -= 1
            if pq_len[rid] > 0 or rc_indptr[rid + 1] > rc_indptr[rid]:
                _dispatch_compute(
                    rid, t, random_compute,
                    capacity, active,
                    pq_base, pq_buf, pq_stamp, pq_len,
                    rc_indptr, rc_indices,
                    gs_base, gs_stamp, gs_op, ch_handoff,
                    elig_stamp, elig_ch,
                    fc_indptr, fc_w0, fc_w1, fc_rate,
                    dur, start,
                    ht, hseq, hcode, hop, st,
                    raw, rsi, rsu,
                    tr_on, tr_depth,
                )
        else:  # transfer done
            if has_dag:
                c = dg_ch[op]
                if c >= 0:
                    ch_complete[c] += 1
                    for pos2 in range(n_eg):  # dag gates may have opened
                        if eg_pending[pos2] > 0:
                            _dispatch_egress(
                                pos2, t, mode, has_dag, has_prio, fabric_cap,
                                capacity, active,
                                egress_ids, eg_chan_indptr, eg_chan_indices,
                                chan_iid, q_base, qbuf, q_head, q_tail,
                                ch_busy, rr_ptr, eg_pending,
                                prio, dg_ch, dg_rank, ch_complete,
                                started, rem_wire, chunk_of, lat, is_chunk,
                                fw_indptr, fw_w0, fw_w1, fw_rate,
                                start,
                                ht, hseq, hcode, hop, st,
                                raw, rsi, rsu,
                                tr_on, tr_depth, tce_op, tce_t0, tce_dur,
                            )
        for j in range(succ_indptr[op], succ_indptr[op + 1]):
            s = succ_indices[j]
            d = indeg[s] - 1
            indeg[s] = d
            if d == 0:
                _make_ready(
                    s, t, mode, has_dag, has_prio, random_compute, noise,
                    fabric_cap,
                    is_transfer, is_chunk, op_res, t_egress, t_chan, lat,
                    capacity, active,
                    hg_ch, hg_rank, dg_ch, dg_rank, prio,
                    eg_pos, egress_ids, eg_chan_indptr, eg_chan_indices,
                    chan_iid,
                    q_base, qbuf, q_head, q_tail, ch_busy, rr_ptr, eg_pending,
                    pq_base, pq_buf, pq_stamp, pq_len,
                    rc_indptr, rc_indices,
                    gs_base, gs_stamp, gs_op, ch_handoff, ch_complete,
                    elig_stamp, elig_ch,
                    started, rem_wire, chunk_of, dur, start,
                    fc_indptr, fc_w0, fc_w1, fc_rate,
                    fw_indptr, fw_w0, fw_w1, fw_rate,
                    ht, hseq, hcode, hop, st,
                    raw, rsi, rsu,
                    tr_on, tr_ready, tr_depth, tce_op, tce_t0, tce_dur,
                )
    return st[_STATUS], start, end, st[_TRACE]


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------
def execute_event_loop(variant, rng, dur, wire, chunk_of, loop):
    """Run one iteration through an array kernel.

    ``rng`` is the iteration's fresh ``numpy.random.Generator``; its raw
    PCG64 outputs are pre-drawn into a buffer the kernel consumes (the
    draw happens *after* any jitter sampling, so the stream position
    matches the python loop exactly). Returns ``(start, end, trace)``:
    float64 op-time arrays plus, when ``variant.config.trace`` is on,
    the raw event streams as a ``(ready, depth, chunk_op, chunk_start,
    chunk_dur)`` tuple (``None`` untraced) — the engine wraps them into
    :class:`repro.obs.events.TraceEvents`."""
    ct = core_tables(variant.core)
    vt = variant_tables(variant)
    dur = np.ascontiguousarray(dur, dtype=np.float64)
    wire = np.ascontiguousarray(wire, dtype=np.float64)
    chunk_of = np.ascontiguousarray(chunk_of, dtype=np.float64)
    raw = rng.bit_generator.random_raw(ct.raw_init)
    heap_cap = ct.heap_cap
    tr_on = bool(variant.config.trace)
    if tr_on:
        # static per-variant bound (jitter cancels in wire/chunk);
        # ``_TRACE_OVERFLOW`` still grows + replays if it is ever wrong.
        tce_cap = variant._trace_cap()
        tr_ready = np.full(ct.n, np.nan)
        tr_depth = np.full(ct.n, -1, dtype=np.int64)
    else:
        tce_cap = 0
        tr_ready = np.zeros(0)
        tr_depth = np.zeros(0, dtype=np.int64)
    tce_op = np.zeros(tce_cap, dtype=np.int64)
    tce_t0 = np.zeros(tce_cap)
    tce_dur = np.zeros(tce_cap)
    # the 20 core-table arrays, then the 22 variant tables/scalars
    args = (
        ct.succ_indptr, ct.succ_indices, ct.base_indeg,
        ct.is_transfer, ct.is_chunk, ct.op_res, ct.t_egress,
        ct.t_ingress, ct.t_chan, ct.lat,
        ct.capacity, ct.chan_iid, ct.eg_pos, ct.egress_ids,
        ct.eg_chan_indptr, ct.eg_chan_indices, ct.q_base, ct.roots,
        ct.root_times, ct.pq_base,
        vt.hg_ch, vt.hg_rank, vt.dg_ch, vt.dg_rank, vt.prio,
        vt.rc_indptr, vt.rc_indices, vt.gs_base,
        vt.mode, vt.noise, vt.fabric_cap, vt.random_compute,
        vt.has_dag, vt.has_prio,
        vt.fc_indptr, vt.fc_w0, vt.fc_w1, vt.fc_rate,
        vt.fw_indptr, vt.fw_w0, vt.fw_w1, vt.fw_rate,
    )
    while True:
        status, start, end, n_tce = loop(
            *args,
            dur, wire, chunk_of, raw, heap_cap,
            tr_on, tr_ready, tr_depth, tce_op, tce_t0, tce_dur,
        )
        if status == _OK:
            if not tr_on:
                return start, end, None
            n_ev = int(n_tce)
            return start, end, (
                tr_ready, tr_depth,
                tce_op[:n_ev].copy(), tce_t0[:n_ev].copy(),
                tce_dur[:n_ev].copy(),
            )
        if status == _RAW_EXHAUSTED:
            # rejection sampling outran the buffer: extend the raw
            # stream in place (same prefix) and replay the iteration.
            # (Trace buffers are simply rewritten: a replay is
            # bit-identical, and the cursor restarts at zero.)
            raw = np.concatenate(
                [raw, rng.bit_generator.random_raw(raw.shape[0])]
            )
        elif status == _HEAP_OVERFLOW:  # pragma: no cover - safety belt
            heap_cap *= 2
        elif status == _TRACE_OVERFLOW:  # pragma: no cover - safety belt
            tce_cap = max(2 * tce_cap, 1024)
            tce_op = np.zeros(tce_cap, dtype=np.int64)
            tce_t0 = np.zeros(tce_cap)
            tce_dur = np.zeros(tce_cap)
        else:  # pragma: no cover - unreachable
            raise RuntimeError(f"kernel returned unknown status {status}")
