"""Elementwise activation layers.

A forward-only (eval-mode) pass keeps nothing for backward: the mask or
output a layer's ``backward`` needs is stored by training-mode forwards
only.  Forward values do not depend on the mode.  Every layer here is
elementwise, so any leading axes are batch axes as a matter of course.
"""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module


class ReLU(Module):
    leading_axes = True

    def __init__(self) -> None:
        super().__init__()
        self._mask: np.ndarray | None = None

    def _free_buffers(self) -> None:
        self._mask = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        # The bits of ``np.where(x > 0, x, 0.0)``
        # (:func:`repro.nn.reference.relu_reference`) without a select per
        # element: fmax drops NaN, and adding +0.0 turns either zero into
        # +0.0.  The output is C-ordered whatever x's layout (a conv
        # output is a transposed view), so the mask and every later pass
        # of the step stream contiguous memory.
        out = np.fmax(x, 0.0, order="C")
        out += 0.0
        self._mask = out > 0 if self.training else None
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return grad_out * self._mask


class LeakyReLU(Module):
    leading_axes = True

    def __init__(self, alpha: float = 0.01) -> None:
        super().__init__()
        self.alpha = alpha
        self._mask: np.ndarray | None = None

    def _free_buffers(self) -> None:
        self._mask = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        mask = x > 0
        self._mask = mask if self.training else None
        return np.where(mask, x, self.alpha * x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        # grad * 1 on the positive side, grad * alpha on the negative side,
        # phrased to preserve grad_out's dtype (a bare np.where(mask, 1.0,
        # alpha) materializes float64 and would upcast float32 gradients).
        return np.where(self._mask, grad_out, grad_out * self.alpha)


class Tanh(Module):
    leading_axes = True

    def __init__(self) -> None:
        super().__init__()
        self._out: np.ndarray | None = None

    def _free_buffers(self) -> None:
        self._out = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = np.tanh(x)
        self._out = out if self.training else None
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise RuntimeError("backward called before forward")
        return grad_out * (1.0 - self._out**2)


class Sigmoid(Module):
    leading_axes = True

    def __init__(self) -> None:
        super().__init__()
        self._out: np.ndarray | None = None

    def _free_buffers(self) -> None:
        self._out = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = sigmoid(x)
        self._out = out if self.training else None
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise RuntimeError("backward called before forward")
        return grad_out * self._out * (1.0 - self._out)


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Numerically stable logistic function.

    Branch-free form of the two-sided formulation: with
    ``t = exp(-|x|) <= 1`` the positive side is ``1 / (1 + t)`` and the
    negative side ``t / (1 + t)`` — the values the original
    boolean-indexed implementation produced (``-|x|`` *is* ``x`` on the
    negative side, and both sides share the denominator).  The numerator
    is ``max(t, [x >= 0])``: exactly ``1`` or ``t`` with no masked select
    (a mispredicted branch per element), and NaN propagates.

    Follows a float input's dtype (anything else is computed in float64).
    ``out`` lets recurrent kernels write into a preallocated workspace and
    may alias ``x``: ``x`` is not read after ``out`` is written.
    """
    x = np.asarray(x)
    if x.dtype.kind != "f":
        x = x.astype(np.float64)
    if out is None:
        out = np.empty(x.shape, dtype=x.dtype)
    t = np.abs(x)
    np.greater_equal(x, 0, out=out)  # 1.0 where x >= 0, else 0.0 (NaN: 0.0)
    np.negative(t, out=t)
    np.exp(t, out=t)  # t = exp(-|x|)
    np.maximum(out, t, out=out)  # numerator
    t += 1.0
    np.divide(out, t, out=out)
    return out
