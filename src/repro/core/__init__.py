"""The paper's primary contribution: distribution regularization for FL.

* :mod:`repro.core.mmd` — maximum mean discrepancy estimators (the
  linear mean-embedding form used by the paper's regularizer, plus a
  full RBF-kernel estimator for the ablation).
* :mod:`repro.core.delta` — per-client mean-embedding tables
  (the ``delta`` vectors exchanged by Algorithms 1 and 2) with payload
  accounting for Table III.
* :mod:`repro.core.regularizer` — the regularizer loss and its exact
  gradient on the feature activations, in both the pairwise (rFedAvg)
  and leave-one-out (rFedAvg+) forms.
* :mod:`repro.core.privacy` — the Gaussian mechanism on delta used by
  the paper's privacy evaluation (Fig. 12).
"""

from repro.core.mmd import (
    linear_mmd,
    rbf_mmd,
    mean_embedding,
    median_heuristic,
)
from repro.core.delta import DeltaSpillStore, DeltaTable
from repro.core.regularizer import (
    DistributionRegularizer,
    pairwise_regularizer_loss,
    loo_regularizer_loss,
)
from repro.core.privacy import GaussianDeltaMechanism

__all__ = [
    "linear_mmd",
    "rbf_mmd",
    "mean_embedding",
    "median_heuristic",
    "DeltaTable",
    "DeltaSpillStore",
    "DistributionRegularizer",
    "pairwise_regularizer_loss",
    "loo_regularizer_loss",
    "GaussianDeltaMechanism",
]
