"""Tensor partitioning and fusion: gradients -> wire chunks.

ByteScheduler's central observation ("Automatic Configuration for Optimal
Communication Scheduling in DNN Training", PAPERS.md) is that the unit of
scheduling should be neither the raw tensor (too coarse: one huge FC layer
monopolizes the wire) nor the packet (too fine: per-transfer overhead
dominates), but a configurable *chunk*:

* tensors larger than ``partition_bytes`` split into near-equal pieces;
* adjacent smaller tensors are always fused into one chunk until the
  threshold is reached (horovod-style bucketing).

Chunks preserve the model's forward parameter order, so chunk index order
is layerwise order and the TIC/TAC priority of a chunk (the minimum of its
members' priorities, :func:`repro.core.schedules.chunk_ranks`) is
well-defined. Splitting conserves bytes exactly: element counts are split
integrally, with the remainder spread over the leading pieces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..models.ir import FLOAT_BYTES, ParamTensor


@dataclass(frozen=True)
class Chunk:
    """One all-reduce unit: a slice of one tensor or a fusion of several."""

    name: str
    index: int
    params: tuple[str, ...]
    n_elements: int

    @property
    def nbytes(self) -> int:
        return self.n_elements * FLOAT_BYTES


def partition_tensors(
    params: Sequence[ParamTensor],
    partition_bytes: int,
) -> list[Chunk]:
    """Slice ``params`` (in order) into chunks of ~``partition_bytes``,
    fusing small neighbours."""
    if partition_bytes <= 0:
        raise ValueError("partition_bytes must be positive")
    chunks: list[Chunk] = []
    bucket: list[str] = []
    bucket_elements = 0

    def flush() -> None:
        nonlocal bucket, bucket_elements
        if bucket:
            chunks.append(
                Chunk(
                    name=f"chunk:{len(chunks):04d}",
                    index=len(chunks),
                    params=tuple(bucket),
                    n_elements=bucket_elements,
                )
            )
            bucket, bucket_elements = [], 0

    max_elements = max(partition_bytes // FLOAT_BYTES, 1)
    for p in params:
        if p.nbytes > partition_bytes:
            flush()
            pieces = -(-p.n_elements // max_elements)  # ceil division
            base, rem = divmod(p.n_elements, pieces)
            for i in range(pieces):
                chunks.append(
                    Chunk(
                        name=f"chunk:{len(chunks):04d}",
                        index=len(chunks),
                        params=(p.name,),
                        n_elements=base + (1 if i < rem else 0),
                    )
                )
            continue
        if bucket and (bucket_elements + p.n_elements) > max_elements:
            flush()
        bucket.append(p.name)
        bucket_elements += p.n_elements
    flush()
    return chunks
