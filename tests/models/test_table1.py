"""Table 1 parity: the model zoo against the paper's published numbers.

Parameter-tensor counts must match exactly; sizes to within 0.01 MiB;
op counts are structural (not padded to the paper's numbers) and must
land within a documented band.
"""

import pytest

from repro.models import (
    MODEL_NAMES,
    PAPER_TABLE_1,
    build_model,
    op_counts,
    standard_batch_size,
)


@pytest.fixture(scope="module")
def zoo():
    return {name: build_model(name) for name in MODEL_NAMES}


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_param_tensor_count_exact(zoo, name):
    assert zoo[name].n_param_tensors == PAPER_TABLE_1[name].n_params


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_param_size_matches_to_hundredth_mib(zoo, name):
    assert zoo[name].total_param_mib == pytest.approx(
        PAPER_TABLE_1[name].param_mib, abs=0.01
    )


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_batch_size_matches(zoo, name):
    assert zoo[name].batch_size == PAPER_TABLE_1[name].batch_size
    assert standard_batch_size(name) == PAPER_TABLE_1[name].batch_size


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_op_counts_within_structural_band(name):
    """Structural emission lands within 40% of TF's counts for every
    model (most are within ~10%; see the ``ops_*_delta_pct`` columns of
    ``results/table1_models.csv``)."""
    ref = PAPER_TABLE_1[name]
    inf, tr = op_counts(build_model(name))
    assert abs(inf - ref.ops_inference) / ref.ops_inference < 0.40
    assert abs(tr - ref.ops_training) / ref.ops_training < 0.40


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_training_graph_larger_than_inference(name):
    inf, tr = op_counts(build_model(name))
    assert 1.4 < tr / inf < 2.3  # the paper's ratios cluster near 2


def test_known_flops_sanity(zoo):
    """Forward GFLOPs per image (2 x MAC convention) against published
    figures."""
    expectations = {
        "VGG-16": (29, 33),
        "ResNet-50 v1": (7, 9),
        "Inception v3": (10.5, 12.5),
        "AlexNet v2": (1.2, 1.8),
        "Inception v1": (2.5, 3.5),
    }
    for name, (lo, hi) in expectations.items():
        ir = zoo[name]
        per_image = ir.forward_flops() / ir.batch_size / 1e9
        assert lo < per_image < hi, f"{name}: {per_image:.2f} GFLOPs/img"


def test_batch_factor_scales_batch():
    ir = build_model("VGG-16", batch_factor=0.5)
    assert ir.batch_size == 16
    ir2 = build_model("VGG-16", batch_factor=2.0)
    assert ir2.batch_size == 64


def test_batch_factor_never_rounds_to_zero():
    assert build_model("Inception v3", batch_factor=0.01).batch_size == 1


def test_unknown_model_rejected():
    with pytest.raises(KeyError, match="unknown model"):
        build_model("LeNet-5")


def test_vgg19_is_strictly_larger_than_vgg16(zoo):
    assert zoo["VGG-19"].n_param_tensors > zoo["VGG-16"].n_param_tensors
    assert zoo["VGG-19"].total_param_bytes > zoo["VGG-16"].total_param_bytes
    assert zoo["VGG-19"].forward_flops() > zoo["VGG-16"].forward_flops()


def test_resnet_v2_adds_preact_betas(zoo):
    v1 = {p.name for p in zoo["ResNet-50 v1"].params}
    v2 = {p.name for p in zoo["ResNet-50 v2"].params}
    preacts = [n for n in v2 if "preact" in n]
    assert len(preacts) == 16  # one per bottleneck unit
    assert any("postnorm" in n for n in v2)
    assert not any("preact" in n for n in v1)
