"""Quantity skew of a federated partition (characterizes a setting)."""

from __future__ import annotations

import numpy as np


def quantity_imbalance(sizes: np.ndarray) -> float:
    """Coefficient of variation of client sizes (0 = perfectly balanced)."""
    sizes = np.asarray(sizes, dtype=np.float64)
    if sizes.mean() == 0:
        return 0.0
    return float(sizes.std() / sizes.mean())
