"""Deterministic fault injection (ISSUE 9).

Declarative :class:`FaultPlan` objects describe link degradation, NIC
flaps, straggler bursts and host failures as fixed time windows on the
simulated clock; :mod:`repro.faults.compile` lowers a plan onto a
compiled core, and the engine's event loop honors the windows
deterministically. Attach a plan via ``SimConfig(faults=...)`` (whole
cluster) or ``JobSpec(faults=...)`` (one job of a mix, auto-scoped into
its namespace).
"""

from .compile import compile_fault_plan, fault_window_rows
from .plan import (
    EVENT_TYPES,
    FaultPlan,
    FaultPlanError,
    HostFailure,
    LinkDegradation,
    NicFlap,
    StragglerBurst,
)

__all__ = [
    "EVENT_TYPES",
    "FaultPlan",
    "FaultPlanError",
    "HostFailure",
    "LinkDegradation",
    "NicFlap",
    "StragglerBurst",
    "compile_fault_plan",
    "fault_window_rows",
]
