"""A small MLP — the fast default model for CPU-budget experiments.

Not part of the paper's evaluation, but the benchmark presets use it
when a full CNN would blow the single-core budget; the FL phenomena the
paper studies (client drift under label skew, the effect of the MMD
regularizer) are architecture-independent, and the ablation bench
verifies the qualitative ordering matches the CNN on small runs.
"""

from __future__ import annotations

import numpy as np

from repro import nn
from repro.models.split import SplitModel


def build_mlp(
    input_dim: int,
    num_classes: int,
    rng: np.random.Generator,
    hidden_dims: tuple[int, ...] = (64,),
    feature_dim: int = 32,
    sample_ndim: int | None = None,
) -> SplitModel:
    """Flatten -> [Linear -> ReLU]* -> Linear(feature_dim) -> ReLU -> head.

    ``sample_ndim`` (the number of axes of one input sample) is what lets
    the model take batches with leading axes; see :class:`repro.nn.Flatten`.
    """
    layers: list[nn.Module] = [nn.Flatten(sample_ndim)]
    prev = input_dim
    for width in hidden_dims:
        layers.append(nn.Linear(prev, width, rng=rng))
        layers.append(nn.ReLU())
        prev = width
    layers.append(nn.Linear(prev, feature_dim, rng=rng))
    layers.append(nn.ReLU())
    features = nn.Sequential(*layers)
    head = nn.Linear(feature_dim, num_classes, rng=rng)
    return SplitModel(features, head, feature_dim=feature_dim)
