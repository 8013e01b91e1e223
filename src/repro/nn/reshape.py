"""Shape-manipulation layers."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module


class Flatten(Module):
    """Collapse the axes of one sample: (B, ...) -> (B, prod(...)).

    A sample's axes cannot be told from batch axes by looking at an
    input, so the two-axis form above is all a bare ``Flatten()`` does.
    ``Flatten(sample_ndim=n)`` collapses the trailing ``n`` axes instead
    and keeps every axis in front of them: (K, B, ...) -> (K, B, prod).
    """

    def __init__(self, sample_ndim: int | None = None) -> None:
        super().__init__()
        if sample_ndim is not None and sample_ndim < 1:
            raise ValueError(f"sample_ndim must be >= 1, got {sample_ndim}")
        self.sample_ndim = sample_ndim
        self._x_shape: tuple[int, ...] | None = None

    @property
    def leading_axes(self) -> bool:
        return self.sample_ndim is not None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x_shape = x.shape
        keep = 1 if self.sample_ndim is None else x.ndim - self.sample_ndim
        if keep < 1:
            raise ValueError(
                f"input of shape {x.shape} has no batch axis in front of "
                f"{self.sample_ndim} sample axes"
            )
        return x.reshape(*x.shape[:keep], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x_shape is None:
            raise RuntimeError("backward called before forward")
        return grad_out.reshape(self._x_shape)
