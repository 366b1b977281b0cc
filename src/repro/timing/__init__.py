"""Timing subsystem: oracles, platforms, tracing (§3.1, §5 of the paper)."""

from .oracle import (
    GeneralTimeOracle,
    MappingTimeOracle,
    PerturbedOracle,
    TimeOracle,
    TimeOracleLike,
    oracle_from_runs,
)
from .platform import ENV_C, ENV_G, PLATFORMS, Platform
from .tracer import (
    TRACE_RUNS,
    TraceRecord,
    TracingModule,
    estimate_time_oracle,
    sample_ground_truth,
    trace_platform_runs,
)

__all__ = [
    "GeneralTimeOracle",
    "MappingTimeOracle",
    "PerturbedOracle",
    "TimeOracle",
    "TimeOracleLike",
    "oracle_from_runs",
    "ENV_C",
    "ENV_G",
    "PLATFORMS",
    "Platform",
    "TRACE_RUNS",
    "TraceRecord",
    "TracingModule",
    "estimate_time_oracle",
    "sample_ground_truth",
    "trace_platform_runs",
]
