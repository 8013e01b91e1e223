"""Fully connected (dense) layer."""

from __future__ import annotations

import numpy as np

from repro.nn.initializers import glorot_uniform, zeros
from repro.nn.module import Module, Parameter


class Linear(Module):
    """Affine map ``y = x @ W + b`` for inputs of shape (batch, in_features).

    Leading axes are batch axes: ``x`` may be ``(..., batch, in_features)``
    against the 2-D weight (every slice through the same map), or
    ``(K, batch, in_features)`` against ``(K, in_features, out_features)``
    weights, ``(K, out_features)`` biases and gradients of those shapes
    (slice ``k`` through map ``k``).  ``np.matmul`` runs one GEMM per
    slice, so slice ``k`` is the bytes of the 2-D call on it.
    """

    leading_axes = True

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator | None = None,
        bias: bool = True,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            glorot_uniform(rng, (in_features, out_features), in_features, out_features),
            name="linear.weight",
        )
        self.bias = Parameter(zeros((out_features,)), name="linear.bias") if bias else None
        self._x: np.ndarray | None = None

    def _free_buffers(self) -> None:
        self._x = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        out = x @ self.weight.data
        if self.bias is not None:
            out = out + self.bias.data[..., None, :]
        return out

    def _accumulate_param_grads(self, grad_out: np.ndarray) -> None:
        if self._x is None:
            raise RuntimeError("backward called before forward")
        self.weight.grad += self._x.swapaxes(-1, -2) @ grad_out
        if self.bias is not None:
            self.bias.grad += grad_out.sum(axis=-2)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        self._accumulate_param_grads(grad_out)
        return grad_out @ self.weight.data.swapaxes(-1, -2)

    def backward_params(self, grad_out: np.ndarray) -> None:
        # Skips ``grad_out @ W.T``: at the first layer of an MLP it is the
        # step's largest backward GEMM, and nobody reads it there.
        self._accumulate_param_grads(grad_out)
