"""Model registry and Table 1 accounting.

``MODEL_BUILDERS`` maps the paper's model names to IR builders (``MODELS``
adds the extras and is the registry :func:`build_model` looks names up in);
``PAPER_TABLE_1`` holds the published characteristics used as reproduction
targets (tests assert exact parameter-tensor counts and near-exact sizes,
and the ``ops_inf_delta_pct``/``ops_train_delta_pct`` columns of
``results/table1_models.csv`` report measured-vs-paper op counts).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..registry import Registry, UnknownNameError
from .alexnet import alexnet_v2
from .inception import inception_v1, inception_v2, inception_v3
from .ir import ModelIR
from .resnet import (
    resnet_v1_50,
    resnet_v1_101,
    resnet_v2_50,
    resnet_v2_101,
    resnet_v2_152,
)
from .vgg import vgg_16, vgg_19


@dataclass(frozen=True)
class PaperModelRow:
    """One row of the paper's Table 1."""

    name: str
    n_params: int
    param_mib: float
    ops_inference: int
    ops_training: int
    batch_size: int


#: Published Table 1, in the paper's row order.
PAPER_TABLE_1: dict[str, PaperModelRow] = {
    row.name: row
    for row in (
        PaperModelRow("AlexNet v2", 16, 191.89, 235, 483, 512),
        PaperModelRow("Inception v1", 116, 25.24, 1114, 2246, 128),
        PaperModelRow("Inception v2", 141, 42.64, 1369, 2706, 128),
        PaperModelRow("Inception v3", 196, 103.54, 1904, 3672, 32),
        PaperModelRow("ResNet-50 v1", 108, 97.39, 1114, 2096, 32),
        PaperModelRow("ResNet-101 v1", 210, 169.74, 2083, 3898, 64),
        PaperModelRow("ResNet-50 v2", 125, 97.45, 1423, 2813, 64),
        PaperModelRow("ResNet-101 v2", 244, 169.86, 2749, 5380, 32),
        PaperModelRow("VGG-16", 32, 527.79, 388, 758, 32),
        PaperModelRow("VGG-19", 38, 548.05, 442, 857, 32),
    )
}

MODEL_BUILDERS: dict[str, Callable[[int], ModelIR]] = {
    "AlexNet v2": alexnet_v2,
    "Inception v1": inception_v1,
    "Inception v2": inception_v2,
    "Inception v3": inception_v3,
    "ResNet-50 v1": resnet_v1_50,
    "ResNet-101 v1": resnet_v1_101,
    "ResNet-50 v2": resnet_v2_50,
    "ResNet-101 v2": resnet_v2_101,
    "VGG-16": vgg_16,
    "VGG-19": vgg_19,
}

MODEL_NAMES: tuple[str, ...] = tuple(MODEL_BUILDERS)

#: Models referenced by the paper outside Table 1 (e.g. §2.2's motivating
#: ResNet-v2-152). Buildable via build_model but excluded from Table 1
#: parity checks and the evaluation sweeps.
EXTRA_MODEL_BUILDERS: dict[str, Callable[[int], ModelIR]] = {
    "ResNet-152 v2": resnet_v2_152,
}

#: Every buildable model (Table 1 first, then the extras) by name.
MODELS: Registry = Registry(
    "model", UnknownNameError, {**MODEL_BUILDERS, **EXTRA_MODEL_BUILDERS}
)

#: The subset evaluated in envC (Fig. 13).
ENVC_MODEL_NAMES: tuple[str, ...] = ("Inception v2", "VGG-16", "AlexNet v2")


def standard_batch_size(name: str) -> int:
    """The paper's per-model standard batch size (Table 1 last column)."""
    return PAPER_TABLE_1[name].batch_size


def build_model(name: str, batch_size: Optional[int] = None,
                batch_factor: float = 1.0) -> ModelIR:
    """Build a model IR by its Table 1 name (or an extra model's name).

    ``batch_size`` defaults to the paper's standard size (32 for extras);
    ``batch_factor`` applies the x0.5 / x1 / x2 scaling of the Fig. 10
    sweep (result is rounded to at least 1).
    """
    builder = MODELS[name]
    if batch_size is None:
        batch_size = (
            standard_batch_size(name) if name in PAPER_TABLE_1 else 32
        )
    batch_size = max(1, round(batch_size * batch_factor))
    return builder(batch_size)
