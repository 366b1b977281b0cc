"""Layer-level intermediate representation of DNN models.

The model zoo describes each of the paper's ten networks (Table 1) as an
ordered set of micro-layer :class:`Node` objects (conv, bn, relu, pool,
fc, concat, add, ...) with explicit parameter tensors and FLOP counts.
Graph emission (:mod:`repro.models.emit`) lowers this IR to the op-level
:class:`~repro.graph.dag.Graph` consumed by the scheduler and simulator.

The IR deliberately mirrors TF-slim's variable conventions so that the
parameter-tensor counts and byte sizes of Table 1 are reproduced exactly:
conv layers carry a weight tensor and (when batch-normalized) a BN ``beta``
— no bias, no BN ``gamma`` (slim's ``scale=False`` default); fully
connected layers carry weights and biases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

FLOAT_BYTES = 4  # all evaluated models use fp32 parameters


@dataclass(frozen=True)
class ParamTensor:
    """A trainable tensor: one unit of PS placement and network transfer."""

    name: str
    shape: tuple[int, ...]

    @property
    def n_elements(self) -> int:
        n = 1
        for d in self.shape:
            n *= d
        return n

    @property
    def nbytes(self) -> int:
        return self.n_elements * FLOAT_BYTES


@dataclass
class Node:
    """One micro-layer: lowers to exactly one kernel op plus fixed aux ops.

    ``inputs`` reference other node names; ``params`` are the tensors this
    node consumes; ``flops`` is the forward cost; ``out_shape`` is
    ``(H, W, C)`` for spatial tensors or ``(C,)`` after flattening —
    batch excluded (the builder scales FLOPs by batch already).
    """

    name: str
    op: str
    inputs: list[str]
    out_shape: tuple[int, ...]
    flops: float = 0.0
    params: list[ParamTensor] = field(default_factory=list)
    attrs: dict = field(default_factory=dict)

    @property
    def out_elements(self) -> int:
        n = 1
        for d in self.out_shape:
            n *= d
        return n


class ModelIR:
    """An ordered, validated collection of :class:`Node` micro-layers."""

    def __init__(self, name: str, batch_size: int) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.name = name
        self.batch_size = batch_size
        self.nodes: dict[str, Node] = {}

    def add(self, node: Node) -> Node:
        if node.name in self.nodes:
            raise ValueError(f"duplicate node {node.name!r} in model {self.name!r}")
        for inp in node.inputs:
            if inp not in self.nodes:
                raise ValueError(
                    f"node {node.name!r} references unknown input {inp!r}"
                )
        self.nodes[node.name] = node
        return node

    def node(self, name: str) -> Node:
        return self.nodes[name]

    def __iter__(self):
        return iter(self.nodes.values())

    def __len__(self) -> int:
        return len(self.nodes)

    # ------------------------------------------------------------------
    # Table 1 accounting
    # ------------------------------------------------------------------
    @property
    def params(self) -> list[ParamTensor]:
        """All parameter tensors in definition order (the transfer units)."""
        out: list[ParamTensor] = []
        for node in self:
            out.extend(node.params)
        return out

    @property
    def n_param_tensors(self) -> int:
        """Table 1's ``#Par`` column."""
        return len(self.params)

    @property
    def total_param_bytes(self) -> int:
        return sum(p.nbytes for p in self.params)

    @property
    def total_param_mib(self) -> float:
        """Table 1's ``Total Par Size (MiB)`` column."""
        return self.total_param_bytes / 2**20

    def forward_flops(self) -> float:
        """Total forward FLOPs for one batch."""
        return sum(n.flops for n in self)

    def consumers(self) -> dict[str, list[str]]:
        """Reverse adjacency: node name -> names of nodes consuming it."""
        out: dict[str, list[str]] = {name: [] for name in self.nodes}
        for node in self:
            for inp in node.inputs:
                out[inp].append(node.name)
        return out

    def structural_fingerprint(self) -> str:
        """Content hash of everything graph emission consumes: node order,
        ops, wiring, shapes, FLOPs and the full parameter census.

        Two IRs with equal fingerprints emit identical graphs (up to
        batch size, hashed in), so the fingerprint is a sound memo key
        for anything derived from the emitted graph — e.g. the ordering
        wizard's schedules (:func:`repro.backends.prepare_comm_schedule`).
        """
        import hashlib

        digest = hashlib.sha256()
        digest.update(f"{self.name}|{self.batch_size}".encode())
        for node in self:
            digest.update(
                f"|{node.name}|{node.op}|{','.join(node.inputs)}"
                f"|{node.out_shape}|{node.flops}|{sorted(node.attrs.items())!r}"
                .encode()
            )
            for p in node.params:
                digest.update(f"|{p.name}|{p.shape}".encode())
        return digest.hexdigest()

    def validate(self) -> None:
        """Check IR invariants: unique params, positive shapes, known ops."""
        seen: set[str] = set()
        for node in self:
            if any(d <= 0 for d in node.out_shape):
                raise ValueError(f"node {node.name!r} has bad shape {node.out_shape}")
            if node.flops < 0:
                raise ValueError(f"node {node.name!r} has negative flops")
            for p in node.params:
                if p.name in seen:
                    raise ValueError(f"parameter {p.name!r} used by two nodes")
                seen.add(p.name)


def conv_out_hw(h: int, w: int, kh: int, kw: int, stride: int, padding: str) -> tuple[int, int]:
    """TensorFlow SAME/VALID output-size arithmetic."""
    if padding == "SAME":
        return math.ceil(h / stride), math.ceil(w / stride)
    if padding == "VALID":
        if h < kh or w < kw:
            raise ValueError(f"VALID padding with input {h}x{w} smaller than kernel {kh}x{kw}")
        return (h - kh) // stride + 1, (w - kw) // stride + 1
    raise ValueError(f"unknown padding {padding!r}")
