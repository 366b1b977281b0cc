"""Discrete-event simulation of Model-Replica + PS clusters."""

from .config import ENFORCEMENT_MODES, SimConfig
from .engine import (
    ENGINE_REV,
    CompiledCore,
    IterationRecord,
    SimVariant,
)
from .jobmix import (
    JobMixGraph,
    JobMixSpec,
    JobSpec,
    build_jobmix_graph,
    prepare_jobmix_schedule,
)
from .metrics import IterationResult, SimulationResult, summarize_iteration
from .pipeline import PipelinedResult, simulate_pipelined
from .runner import (
    prepare_schedule,
    simulate_cell_group,
    simulate_cluster,
    speedup_vs_baseline,
    throughput_gain_pct,
)

__all__ = [
    "ENFORCEMENT_MODES",
    "ENGINE_REV",
    "SimConfig",
    "CompiledCore",
    "SimVariant",
    "IterationRecord",
    "IterationResult",
    "SimulationResult",
    "summarize_iteration",
    "JobSpec",
    "JobMixSpec",
    "JobMixGraph",
    "build_jobmix_graph",
    "prepare_jobmix_schedule",
    "PipelinedResult",
    "simulate_pipelined",
    "prepare_schedule",
    "simulate_cell_group",
    "simulate_cluster",
    "speedup_vs_baseline",
    "throughput_gain_pct",
]
