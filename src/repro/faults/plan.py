"""Declarative, fully deterministic fault plans (ISSUE 9).

A :class:`FaultPlan` is a tuple of typed, time-windowed fault events
describing how the simulated cluster misbehaves:

* :class:`LinkDegradation` — the wire channel(s) between two devices run
  at a fraction of nominal bandwidth inside a window;
* :class:`NicFlap` — every channel touching one device degrades (the
  device's NIC, not a single link);
* :class:`StragglerBurst` — a device's compute slows down by a factor
  inside a window, generalizing the static
  :attr:`repro.sim.config.SimConfig.device_slowdown` to transients;
* :class:`HostFailure` — a device goes dark for a recovery interval:
  its compute stalls (work resumes where it stopped) and chunks on its
  wires when the outage hits are lost and retransmit from scratch at
  recovery.

Plans are plain frozen dataclasses: hashable (so they ride in frozen
specs like :class:`repro.sim.jobmix.JobSpec`), picklable (so they cross
sweep-worker processes) and ``dataclasses.asdict``-able (so they fold
into sweep cache keys — see ``SimCell.key_payload``). Event fields are
validated at construction; *names* are validated later, when the plan is
compiled against a concrete cluster (:mod:`repro.faults.compile`), with
did-you-mean hints in the :class:`FaultPlanError`.

Determinism: a plan contributes no randomness. Fault windows are fixed
intervals on each iteration's own simulated clock (every iteration runs
its event loop from t=0, so the same windows apply to every iteration),
and the event loop evaluates them in a fixed floating-point operation
order — results are bit-reproducible, and an empty (or
zero-magnitude) plan is byte-identical to no plan at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


class FaultPlanError(ValueError):
    """Malformed fault event, or a device/link name that does not
    resolve against the compiled cluster (carries a did-you-mean hint
    when one is close enough)."""


def _check_window(event: str, start: float, duration: float) -> None:
    if not start >= 0.0:
        raise FaultPlanError(f"{event}: start must be >= 0 (got {start!r})")
    if not duration > 0.0:
        raise FaultPlanError(f"{event}: duration must be > 0 (got {duration!r})")


def _check_bandwidth_factor(event: str, factor: float) -> None:
    if not 0.0 <= factor <= 1.0:
        raise FaultPlanError(
            f"{event}: factor is the bandwidth fraction retained and must "
            f"be in [0, 1] (got {factor!r}; 0 = outage, 1 = no-op)"
        )


@dataclass(frozen=True)
class LinkDegradation:
    """The wire channel(s) between ``src`` and ``dst`` (both directions)
    run at ``factor`` of nominal bandwidth in
    ``[start, start + duration)``. ``factor=0`` is an outage: a chunk on
    the wire when the window opens is lost and retransmits from scratch
    at recovery."""

    src: str
    dst: str
    start: float
    duration: float
    factor: float
    kind: str = field(default="link_degradation", init=False)

    def __post_init__(self) -> None:
        _check_window("LinkDegradation", self.start, self.duration)
        _check_bandwidth_factor("LinkDegradation", self.factor)

    def scoped(self, prefix: str) -> "LinkDegradation":
        return replace(self, src=prefix + self.src, dst=prefix + self.dst)


@dataclass(frozen=True)
class NicFlap:
    """Every wire channel touching ``device`` (as source or destination)
    runs at ``factor`` of nominal bandwidth in
    ``[start, start + duration)`` — a flapping/renegotiating NIC rather
    than a single bad cable."""

    device: str
    start: float
    duration: float
    factor: float
    kind: str = field(default="nic_flap", init=False)

    def __post_init__(self) -> None:
        _check_window("NicFlap", self.start, self.duration)
        _check_bandwidth_factor("NicFlap", self.factor)

    def scoped(self, prefix: str) -> "NicFlap":
        return replace(self, device=prefix + self.device)


@dataclass(frozen=True)
class StragglerBurst:
    """``device``'s compute runs ``factor``x slower inside
    ``[start, start + duration)`` — the transient form of
    ``SimConfig.device_slowdown`` (§6.3 preempted/oversubscribed cloud
    workers). ``factor`` multiplies compute time, so it must be
    >= 1 (1 = no-op)."""

    device: str
    start: float
    duration: float
    factor: float
    kind: str = field(default="straggler_burst", init=False)

    def __post_init__(self) -> None:
        _check_window("StragglerBurst", self.start, self.duration)
        if not self.factor >= 1.0:
            raise FaultPlanError(
                "StragglerBurst: factor multiplies compute time and must "
                f"be >= 1 (got {self.factor!r})"
            )

    def scoped(self, prefix: str) -> "StragglerBurst":
        return replace(self, device=prefix + self.device)


@dataclass(frozen=True)
class HostFailure:
    """``device`` goes dark in ``[start, start + recovery)``: compute in
    flight stalls and resumes where it stopped at recovery; chunks on
    any wire touching the device are lost and retransmit from scratch at
    recovery (the PS-failure model: state survives, in-flight RPCs do
    not)."""

    device: str
    start: float
    recovery: float
    kind: str = field(default="host_failure", init=False)

    def __post_init__(self) -> None:
        _check_window("HostFailure", self.start, self.recovery)

    def scoped(self, prefix: str) -> "HostFailure":
        return replace(self, device=prefix + self.device)


#: every concrete event type a plan may hold.
EVENT_TYPES = (LinkDegradation, NicFlap, StragglerBurst, HostFailure)


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, hashable set of fault events.

    Construction validates event *types* only; names resolve against a
    concrete cluster at compile time
    (:func:`repro.faults.compile.compile_fault_plan`). Plans compose
    with ``+`` and re-namespace with :meth:`scoped` (the job-mix path
    prefixes each job's plan into its ``j<i>/`` namespace)."""

    events: tuple = ()

    def __post_init__(self) -> None:
        events = tuple(self.events)
        for e in events:
            if not isinstance(e, EVENT_TYPES):
                names = sorted(t.__name__ for t in EVENT_TYPES)
                raise FaultPlanError(
                    f"fault events must be one of {names}; got {e!r}"
                )
        object.__setattr__(self, "events", events)

    @property
    def is_empty(self) -> bool:
        return not self.events

    def scoped(self, prefix: str) -> "FaultPlan":
        """The same plan with every device name prefixed (job-mix
        namespaces: ``plan.scoped('j0/')``)."""
        return FaultPlan(tuple(e.scoped(prefix) for e in self.events))

    def __add__(self, other: "FaultPlan") -> "FaultPlan":
        if not isinstance(other, FaultPlan):
            return NotImplemented
        return FaultPlan(self.events + other.events)
