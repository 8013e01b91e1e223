"""Stateless numerical helpers shared across the library."""

from __future__ import annotations

import numpy as np


def clip_by_norm(vec: np.ndarray, max_norm: float) -> np.ndarray:
    """Scale ``vec`` down so its L2 norm is at most ``max_norm``."""
    norm = float(np.linalg.norm(vec))
    if norm <= max_norm or norm == 0.0:
        return vec
    return vec * (max_norm / norm)
