"""The distribution-regularizer loss and its feature-space gradient.

Eq. 5 defines ``r_k = (1/(N-1)) sum_{j != k} d^2(phi(x_k), phi(x_j))``;
rFedAvg+ swaps in the leave-one-out form ``r~_k = ||delta^k -
mean_{j != k} delta^j||^2`` (Sec. IV-C), which the paper shows has the
same gradient with respect to the client's own embedding.  Both forms
are provided; the gradient path is shared.

Gradient derivation (what :func:`_embedding_grad` implements): with a
minibatch of B feature rows f_1..f_B and delta = mean_i f_i,

    d/d f_i  lambda * ||delta - target||^2
        = lambda * 2 (delta - target) / B        (same for every row)

and for the pairwise form the target is the mean of the other clients'
deltas, because sum_j 2(delta - delta_j) / (N-1) = 2(delta - mean_j
delta_j).  The gradient then continues through phi via the model's
ordinary backward pass (SplitModel.backward's ``feature_grad`` hook).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.mmd import mean_embedding
from repro.exceptions import ConfigError


def pairwise_regularizer_loss(delta: np.ndarray, others: np.ndarray) -> float:
    """r_k: mean squared distance from ``delta`` to each row of ``others``."""
    others = np.atleast_2d(others)
    gaps = others - delta
    return float((gaps * gaps).sum(axis=1).mean())


def loo_regularizer_loss(delta: np.ndarray, target: np.ndarray) -> float | np.ndarray:
    """r~_k: squared distance from ``delta`` to the leave-one-out mean
    (``(K, d)`` rows against ``(K, d)`` targets: the ``K`` distances)."""
    gap = delta - target
    # A row-times-column product per gap: the bits of ``gap @ gap``.
    squared = (gap[..., None, :] @ gap[..., :, None])[..., 0, 0]
    return squared if squared.ndim else float(squared)


def _embedding_grad(
    batch_delta: np.ndarray, target: np.ndarray, batch_size: int, lam: float
) -> np.ndarray:
    """Gradient of lambda*||delta - target||^2 on each feature row."""
    return (2.0 * lam / batch_size) * (batch_delta - target)


@dataclass(frozen=True)
class RegularizerResult:
    """Output of one regularizer evaluation on a minibatch."""

    loss: float | np.ndarray  # lambda * r_k (the weighted regularization loss)
    feature_grad: np.ndarray  # (B, d) gradient to add on the features


class DistributionRegularizer:
    """Computes the regularization term and its feature gradient.

    Args:
        lam: the weight/normalization coefficient lambda (Eq. 3).
        mode: 'pairwise' (rFedAvg, needs the full delta table) or
            'loo' (rFedAvg+, needs only the leave-one-out average).
    """

    PAIRWISE = "pairwise"
    LOO = "loo"

    def __init__(self, lam: float, mode: str = LOO) -> None:
        if lam < 0:
            raise ConfigError(f"lambda must be non-negative, got {lam}")
        if mode not in (self.PAIRWISE, self.LOO):
            raise ConfigError(f"unknown regularizer mode {mode!r}")
        self.lam = lam
        self.mode = mode

    def evaluate(
        self, features: np.ndarray, reference: np.ndarray
    ) -> RegularizerResult:
        """Regularizer loss + feature gradient for one minibatch.

        Args:
            features: (B, d) feature activations phi(x) of the batch.
            reference: for 'pairwise' mode, the (M, d) deltas of the
                other clients; for 'loo' mode, the (d,) leave-one-out
                average delta^{-k}.

        In 'loo' mode leading axes are batch axes: (K, B, d) features
        against (K, d) targets evaluate K clients at once — K losses
        and a (K, B, d) gradient, slice k the bytes of the 2-D call.

        Returns:
            :class:`RegularizerResult` with the *lambda-weighted* loss
            and the (B, d) gradient to inject into the model backward.
        """
        features = np.asarray(features, dtype=np.float64)
        batch_size = features.shape[-2]
        delta = mean_embedding(features)
        if self.mode == self.PAIRWISE:
            if features.ndim != 2:
                raise ConfigError(
                    f"pairwise mode takes (batch, dim) features, got {features.shape}"
                )
            others = np.atleast_2d(np.asarray(reference, dtype=np.float64))
            if others.shape[1] != delta.shape[0]:
                raise ConfigError(
                    f"reference dim {others.shape[1]} != feature dim {delta.shape[0]}"
                )
            loss = self.lam * pairwise_regularizer_loss(delta, others)
            target = others.mean(axis=0)
        else:
            target = np.asarray(reference, dtype=np.float64)
            if target.shape != delta.shape:
                raise ConfigError(
                    f"reference shape {target.shape} != delta shape {delta.shape}"
                )
            loss = self.lam * loo_regularizer_loss(delta, target)
        grad_row = _embedding_grad(delta, target, batch_size, self.lam)
        feature_grad = np.broadcast_to(grad_row[..., None, :], features.shape).copy()
        return RegularizerResult(loss=loss, feature_grad=feature_grad)
