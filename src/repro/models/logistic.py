"""Strongly convex model for validating the convergence theory.

Theorems 1 and 2 assume L-smooth, mu-strongly convex local objectives
and a convex mapping phi.  Multinomial logistic regression with L2
weight decay satisfies both: the feature map is a single linear layer
(convex in the parameters for fixed input) and the regularized
cross-entropy is strongly convex.  The convergence benches run the six
algorithms on this model and check the O(1/T) decay and the C2 < C3
ordering empirically.
"""

from __future__ import annotations

import numpy as np

from repro import nn
from repro.models.split import SplitModel


def build_logistic(
    input_dim: int,
    num_classes: int,
    rng: np.random.Generator,
    feature_dim: int | None = None,
    sample_ndim: int | None = None,
) -> SplitModel:
    """Linear feature map + linear head (no nonlinearity anywhere).

    With ``feature_dim=None`` the feature map is a square linear layer,
    so phi is a convex (affine) mapping exactly as Assumption A6 asks.
    ``sample_ndim`` (the number of axes of one input sample) is what lets
    the model take batches with leading axes; see :class:`repro.nn.Flatten`.
    """
    feat = feature_dim if feature_dim is not None else input_dim
    features = nn.Sequential(
        nn.Flatten(sample_ndim), nn.Linear(input_dim, feat, rng=rng)
    )
    head = nn.Linear(feat, num_classes, rng=rng)
    return SplitModel(features, head, feature_dim=feat)
