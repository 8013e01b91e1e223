"""Spatial pooling layers for (batch, channels, H, W) inputs."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module


class MaxPool2d(Module):
    """Non-overlapping max pooling with a square window.

    Requires the spatial dims to be divisible by ``pool_size`` (the model
    zoo pads inputs so this always holds), so the window's ``p * p``
    positions are ``p * p`` strided sub-grids of the input.  For the
    2x2 window every model uses, the pooled output is their elementwise
    maximum — no reshape of the (typically non-contiguous) conv output and
    no multi-axis reduction.  Bit-identical to
    :class:`repro.nn.reference.ReferenceMaxPool2d`, forward and backward.
    """

    def __init__(self, pool_size: int = 2) -> None:
        super().__init__()
        self.pool_size = pool_size
        # Backward state of the last training-mode forward: per window
        # position, the share of the output gradient it receives.
        self._weights: list[np.ndarray] | None = None
        self._x_shape: tuple[int, ...] | None = None

    def _free_buffers(self) -> None:
        self._weights = None
        self._x_shape = None

    def _positions(self, x: np.ndarray) -> list[np.ndarray]:
        """The window positions as strided views, row-major within a window."""
        p = self.pool_size
        return [x[:, :, i::p, j::p] for i in range(p) for j in range(p)]

    def forward(self, x: np.ndarray) -> np.ndarray:
        height, width = x.shape[2:]
        p = self.pool_size
        if height % p or width % p:
            raise ValueError(
                f"MaxPool2d: spatial dims ({height},{width}) not divisible by {p}"
            )
        positions = self._positions(x)
        if p == 2:
            # The hot case.  np.maximum keeps its second argument when the
            # two are equal, so taking the four positions in row-major
            # order returns the zero (+0.0 or -0.0) the reference's
            # reduction returns for a row-major input.
            out = np.maximum(positions[0], positions[1])
            np.maximum(out, positions[2], out=out)
            np.maximum(out, positions[3], out=out)
        else:
            batch, channels = x.shape[:2]
            out = x.reshape(batch, channels, height // p, p, width // p, p).max(axis=(3, 5))
        self._x_shape = x.shape
        if not self.training:
            # A forward-only pass keeps nothing for backward.
            self._weights = None
            return out
        # Ties are broken by keeping all maxima and splitting the gradient
        # evenly, which still yields a valid subgradient: each position's
        # weight is (is it a maximum) / (number of maxima), the reference's
        # normalized mask one window position at a time.  The weights
        # follow the input dtype so float32 stays float32.
        is_max = [position == out for position in positions]
        count = is_max[0].astype(x.dtype)
        for hit in is_max[1:]:
            count += hit
        self._weights = [hit / count for hit in is_max]
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._weights is None or self._x_shape is None:
            raise RuntimeError("backward called before forward")
        grad = np.empty(self._x_shape, dtype=np.result_type(self._weights[0], grad_out))
        for weight, position in zip(self._weights, self._positions(grad)):
            np.multiply(weight, grad_out, out=position)
        return grad
