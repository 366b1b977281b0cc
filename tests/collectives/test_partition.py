"""Tensor partitioning/fusion: conservation and shape of the chunking."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectives import CollectiveSpec, partition_tensors
from repro.models.ir import FLOAT_BYTES, ParamTensor

from ..conftest import examples
from ..strategies import model_irs


def tensors(*shapes):
    return [ParamTensor(f"p{i}", shape) for i, shape in enumerate(shapes)]


def test_large_tensor_splits_and_conserves_elements():
    (p,) = tensors((1000,))
    chunks = partition_tensors([p], partition_bytes=300 * FLOAT_BYTES)
    assert len(chunks) == 4  # ceil(1000/300)
    assert sum(c.n_elements for c in chunks) == 1000
    assert all(c.params == ("p0",) for c in chunks)
    # near-equal split: sizes differ by at most one element
    sizes = [c.n_elements for c in chunks]
    assert max(sizes) - min(sizes) <= 1


def test_small_tensors_fuse_up_to_threshold():
    params = tensors((100,), (100,), (100,), (100,))
    chunks = partition_tensors(params, partition_bytes=250 * FLOAT_BYTES)
    assert [c.params for c in chunks] == [("p0", "p1"), ("p2", "p3")]
    assert [c.n_elements for c in chunks] == [200, 200]


def test_chunk_indices_are_dense_and_ordered():
    params = tensors((1000,), (10,), (10,), (900,))
    chunks = partition_tensors(params, partition_bytes=400 * FLOAT_BYTES)
    assert [c.index for c in chunks] == list(range(len(chunks)))
    assert [c.name for c in chunks] == [f"chunk:{i:04d}" for i in range(len(chunks))]


def test_partition_bytes_must_be_positive():
    with pytest.raises(ValueError, match="positive"):
        partition_tensors(tensors((4,)), partition_bytes=0)


@given(model_irs(), st.sampled_from([64, 1024, 2**20]))
@settings(max_examples=examples(20), deadline=None)
def test_partition_conserves_model_bytes(ir, partition_bytes):
    chunks = partition_tensors(ir.params, partition_bytes)
    assert sum(c.n_elements for c in chunks) == sum(
        p.n_elements for p in ir.params
    )
    assert sum(c.nbytes for c in chunks) == ir.total_param_bytes
    # every parameter appears in at least one chunk, split pieces aside
    covered = {p for c in chunks for p in c.params}
    assert covered == {p.name for p in ir.params}


def test_spec_validation():
    with pytest.raises(ValueError, match="topology"):
        CollectiveSpec(n_workers=2, topology="butterfly")
    with pytest.raises(ValueError, match="positive"):
        CollectiveSpec(n_workers=0)
    spec = CollectiveSpec(n_workers=4)
    assert spec.workload == "training"
    assert spec.n_ps == 0
    assert spec.workers == ["worker:0", "worker:1", "worker:2", "worker:3"]


@pytest.mark.parametrize(
    "n_workers,expected_group",
    [(2, 1), (4, 2), (8, 4), (12, 4), (6, 3), (3, 1), (16, 4)],
)
def test_auto_group_size(n_workers, expected_group):
    spec = CollectiveSpec(n_workers=n_workers, topology="hierarchical")
    assert spec.effective_group_size == expected_group
    groups = spec.groups()
    assert sum(len(g) for g in groups) == n_workers
    assert all(len(g) == expected_group for g in groups)
