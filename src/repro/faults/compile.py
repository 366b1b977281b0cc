"""Lower a :class:`~repro.faults.plan.FaultPlan` onto a compiled core.

:func:`compile_fault_plan` resolves every event's device/link names
against the core (``FaultPlanError`` with a did-you-mean hint on
unknown names) and produces, per compute resource and per wire channel,
a **sorted, disjoint** list of ``(w0, w1, rate)`` windows:

* for compute resources ``rate`` is the fraction of nominal speed
  (``StragglerBurst(factor=f)`` contributes ``1/f``; ``HostFailure``
  contributes ``0``);
* for wire channels ``rate`` is the fraction of nominal bandwidth
  (``LinkDegradation``/``NicFlap`` contribute their ``factor``;
  ``HostFailure`` contributes ``0``).

Overlapping windows on one entity compose multiplicatively (a straggler
burst during a host failure is still a dead host) via a boundary sweep;
rate-1 stretches are dropped, so a zero-magnitude plan compiles to no
windows at all — byte-identical to a fault-free run, which the golden
matrix and hypothesis suites pin. The window lists feed the event
loop's fault evaluators (``_compute_fault_end``/``_chunk_fault_end``)
and the trace layer's fault annotations.
"""

from __future__ import annotations

from ..registry import did_you_mean
from .plan import FaultPlan, FaultPlanError


def _merge_windows(raw: list) -> list:
    """Compose raw (possibly overlapping) windows into sorted disjoint
    stretches with multiplicative rates; drop rate-1 (no-op) stretches
    and merge adjacent equal-rate neighbours."""
    bounds = sorted({b for w0, w1, _r in raw for b in (w0, w1)})
    out: list = []
    for a, b in zip(bounds, bounds[1:]):
        rate = 1.0
        for w0, w1, r in raw:
            if w0 <= a and b <= w1:
                rate *= r
        if rate == 1.0:
            continue
        if out and out[-1][1] == a and out[-1][2] == rate:
            out[-1] = (out[-1][0], b, rate)
        else:
            out.append((a, b, rate))
    return out


def compile_fault_plan(plan: FaultPlan, core):
    """Resolve + lower ``plan`` against ``core`` (a
    :class:`repro.sim.engine.CompiledCore`, duck-typed).

    Returns ``(compute_windows, wire_windows)``: lists indexed by
    compute resource id / wire channel id, each entry either ``None``
    (unfaulted — the event loop then executes the literal fault-free
    expressions) or a sorted disjoint ``[(w0, w1, rate), ...]`` list.
    """
    chan_devices = list(core.chan_devices)
    comp_devices = {d for d in core.device_compute_ops if d is not None}
    link_devices = {d for pair in chan_devices for d in pair}
    all_devices = comp_devices | link_devices
    pair_chans: dict = {}
    touch_chans: dict = {}
    for c, (src, dst) in enumerate(chan_devices):
        pair_chans.setdefault((src, dst), []).append(c)
        touch_chans.setdefault(src, []).append(c)
        if dst != src:
            touch_chans.setdefault(dst, []).append(c)

    def check_device(event: str, device: str) -> None:
        if device not in all_devices:
            raise FaultPlanError(
                f"{event} names unknown device {device!r}; known devices: "
                f"{sorted(all_devices)}" + did_you_mean(device, all_devices)
            )

    raw_comp: dict = {}
    raw_wire: dict = {}

    def add_wire(chans, w0: float, w1: float, rate: float) -> None:
        for c in chans:
            raw_wire.setdefault(c, []).append((w0, w1, rate))

    def add_comp(device: str, w0: float, w1: float, rate: float) -> None:
        ids = core.device_compute_ops[device]
        rid = int(core.op_res[ids[0]])
        raw_comp.setdefault(rid, []).append((w0, w1, rate))

    for e in plan.events:
        kind = e.kind
        if kind == "link_degradation":
            check_device("LinkDegradation", e.src)
            check_device("LinkDegradation", e.dst)
            chans = list(pair_chans.get((e.src, e.dst), ()))
            if e.dst != e.src:
                chans += pair_chans.get((e.dst, e.src), ())
            if not chans:
                links = sorted(f"{s}->{d}" for s, d in pair_chans)
                raise FaultPlanError(
                    f"LinkDegradation: no wire channel between {e.src!r} "
                    f"and {e.dst!r}; known links: {links}"
                    + did_you_mean(f"{e.src}->{e.dst}", links)
                )
            add_wire(chans, e.start, e.start + e.duration, e.factor)
        elif kind == "nic_flap":
            check_device("NicFlap", e.device)
            chans = touch_chans.get(e.device)
            if not chans:
                raise FaultPlanError(
                    f"NicFlap: device {e.device!r} touches no wire channel"
                )
            add_wire(chans, e.start, e.start + e.duration, e.factor)
        elif kind == "straggler_burst":
            if e.device not in comp_devices:
                raise FaultPlanError(
                    f"StragglerBurst names unknown compute device "
                    f"{e.device!r}; known devices: {sorted(comp_devices)}"
                    + did_you_mean(e.device, comp_devices)
                )
            add_comp(e.device, e.start, e.start + e.duration, 1.0 / e.factor)
        elif kind == "host_failure":
            check_device("HostFailure", e.device)
            w1 = e.start + e.recovery
            if e.device in comp_devices:
                add_comp(e.device, e.start, w1, 0.0)
            add_wire(touch_chans.get(e.device, ()), e.start, w1, 0.0)
        else:  # pragma: no cover - FaultPlan validates event types
            raise FaultPlanError(f"unknown fault event kind {kind!r}")

    compute_windows: list = [None] * core.n_res
    for rid, raw in raw_comp.items():
        merged = _merge_windows(raw)
        if merged:
            compute_windows[rid] = merged
    wire_windows: list = [None] * core.n_wire_channels
    for c, raw in raw_wire.items():
        merged = _merge_windows(raw)
        if merged:
            wire_windows[c] = merged
    return compute_windows, wire_windows


def fault_window_rows(variant) -> list:
    """Name-resolved fault windows of a compiled variant, for the trace
    layer: ``(kind, entity, w0, w1, rate)`` tuples with ``kind`` in
    {'compute', 'wire'} and ``entity`` a device name or ``src->dst``."""
    core = variant.core
    rows: list = []
    comp = getattr(variant, "_fault_comp", None)
    wire = getattr(variant, "_fault_wire", None)
    if comp is not None and any(w is not None for w in comp):
        names = core.resource_names()
        for rid, windows in enumerate(comp):
            if windows:
                dev = names[rid].split(":", 1)[1]
                for w0, w1, rate in windows:
                    rows.append(("compute", dev, w0, w1, rate))
    if wire is not None:
        for c, windows in enumerate(wire):
            if windows:
                src, dst = core.chan_devices[c]
                for w0, w1, rate in windows:
                    rows.append(("wire", f"{src}->{dst}", w0, w1, rate))
    return rows
