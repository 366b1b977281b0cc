"""Collective-communication backend: ring/hierarchical all-reduce cluster
graphs with TIC/TAC chunk scheduling.

The second communication backend alongside :mod:`repro.ps`: instead of
parameter-server pulls and pushes, gradients synchronize through chunked
all-reduce collectives whose transfer ops live on the same directional
link/NIC resources the simulator already models. See
:mod:`repro.collectives.graph` for the window framing and
:mod:`repro.backends` for how specs dispatch between backends.
"""

from .graph import build_collective_graph
from .hierarchical import emit_hierarchical_allreduce
from .partition import Chunk, partition_tensors
from .ring import emit_ring_allreduce
from .spec import TOPOLOGIES, CollectiveSpec

__all__ = [
    "Chunk",
    "CollectiveSpec",
    "TOPOLOGIES",
    "build_collective_graph",
    "emit_hierarchical_allreduce",
    "emit_ring_allreduce",
    "partition_tensors",
]
