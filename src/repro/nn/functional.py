"""Stateless numerical helpers shared across the library."""

from __future__ import annotations

import numpy as np


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = logits - logits.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Top-1 classification accuracy."""
    preds = logits.argmax(axis=-1)
    return float((preds == np.asarray(labels)).mean())


def clip_by_norm(vec: np.ndarray, max_norm: float) -> np.ndarray:
    """Scale ``vec`` down so its L2 norm is at most ``max_norm``."""
    norm = float(np.linalg.norm(vec))
    if norm <= max_norm or norm == 0.0:
        return vec
    return vec * (max_norm / norm)
