"""Loss functions with exact gradients.

Each loss exposes ``forward(pred, target) -> float`` and
``backward() -> grad_wrt_pred``.  Losses are mean-reduced over the batch,
matching the paper's per-client empirical risk (Eq. 4 normalized by n_k).
"""

from __future__ import annotations

import numpy as np


class Loss:
    """Interface for batch-mean losses."""

    def forward(self, pred: np.ndarray, target: np.ndarray) -> float:
        raise NotImplementedError

    def backward(self) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, pred: np.ndarray, target: np.ndarray) -> float:
        return self.forward(pred, target)


class SoftmaxCrossEntropy(Loss):
    """Multiclass cross-entropy on raw logits with integer labels.

    Leading axes are batch axes: ``(K, B, C)`` logits with ``(K, B)``
    labels give the ``K`` batch-mean losses as an array (slice ``k`` is
    the bytes of the 2-D call on it) and a ``(K, B, C)`` gradient.
    """

    def __init__(self) -> None:
        self._probs: np.ndarray | None = None
        self._picked: tuple[np.ndarray, np.ndarray] | None = None

    def forward(self, pred: np.ndarray, target: np.ndarray) -> float | np.ndarray:
        labels = np.asarray(target, dtype=np.int64)
        # functional.log_softmax and functional.softmax in one pass: the
        # same operations on the same values, so the same bits.
        shifted = pred - pred.max(axis=-1, keepdims=True)
        exp = np.exp(shifted)
        total = exp.sum(axis=-1, keepdims=True)
        logp = shifted - np.log(total)
        self._probs = exp / total
        # Each sample's own class, addressed through the (rows, C) view.
        self._picked = picked = (np.arange(labels.size), labels.reshape(-1))
        loss = -logp.reshape(-1, pred.shape[-1])[picked].reshape(labels.shape).mean(axis=-1)
        return loss if loss.ndim else float(loss)

    def backward(self) -> np.ndarray:
        if self._probs is None or self._picked is None:
            raise RuntimeError("backward called before forward")
        grad = self._probs.copy()
        grad.reshape(-1, grad.shape[-1])[self._picked] -= 1.0
        return grad / grad.shape[-2]


class MeanSquaredError(Loss):
    def __init__(self) -> None:
        self._diff: np.ndarray | None = None

    def forward(self, pred: np.ndarray, target: np.ndarray) -> float:
        # Cast the target to the prediction dtype so float32 training
        # does not silently upcast the whole backward pass to float64.
        self._diff = pred - np.asarray(target, dtype=pred.dtype)
        return float((self._diff**2).mean())

    def backward(self) -> np.ndarray:
        if self._diff is None:
            raise RuntimeError("backward called before forward")
        return 2.0 * self._diff / self._diff.size
