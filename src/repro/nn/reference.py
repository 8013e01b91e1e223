"""Reference (pre-optimization) kernels kept as equivalence oracles.

The optimized hot-path kernels in :mod:`repro.nn.conv`,
:mod:`repro.nn.pooling`, :mod:`repro.nn.activations` and
:mod:`repro.nn.recurrent` are required to be
*bit-for-bit* identical to these straightforward
implementations in float64 — that is the contract that lets the kernel
rewrites ship without re-validating every paper experiment.  The equivalence tests
(``tests/nn/test_kernel_equivalence.py``, ``test_recurrent_kernels.py``,
``test_pooling.py``) and the train-step speed check in
``benchmarks/test_fig10_efficiency.py`` compare against this module; it
is not used on any training path.

The code here is the original loop-based implementation, frozen on
purpose — do not "optimize" it.
"""

from __future__ import annotations

import numpy as np

from repro.nn.conv import Conv2d
from repro.nn.module import Module
from repro.nn.pooling import MaxPool2d
from repro.nn.recurrent import LSTMCell


def sigmoid_reference(x: np.ndarray) -> np.ndarray:
    """Original logistic function: two boolean-indexed exp branches."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def relu_reference(x: np.ndarray) -> np.ndarray:
    """Original rectifier: a masked select, in ``x``'s memory order."""
    return np.where(x > 0, x, 0.0)


def im2col_reference(
    x: np.ndarray, kernel: int, stride: int, padding: int
) -> tuple[np.ndarray, int, int]:
    """Original im2col: gather kernel offsets with a K x K Python loop."""
    batch, channels, height, width = x.shape
    out_h = (height + 2 * padding - kernel) // stride + 1
    out_w = (width + 2 * padding - kernel) // stride + 1
    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols = np.empty((batch, channels, kernel, kernel, out_h, out_w), dtype=x.dtype)
    for ki in range(kernel):
        i_end = ki + stride * out_h
        for kj in range(kernel):
            j_end = kj + stride * out_w
            cols[:, :, ki, kj, :, :] = x[:, :, ki:i_end:stride, kj:j_end:stride]
    cols = cols.transpose(0, 4, 5, 1, 2, 3).reshape(batch * out_h * out_w, -1)
    return cols, out_h, out_w


def col2im_reference(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kernel: int,
    stride: int,
    padding: int,
    out_h: int,
    out_w: int,
) -> np.ndarray:
    """Original col2im: scatter-add through a transposed 6-D view."""
    batch, channels, height, width = x_shape
    padded = np.zeros(
        (batch, channels, height + 2 * padding, width + 2 * padding), dtype=cols.dtype
    )
    cols6 = cols.reshape(batch, out_h, out_w, channels, kernel, kernel).transpose(
        0, 3, 4, 5, 1, 2
    )
    for ki in range(kernel):
        i_end = ki + stride * out_h
        for kj in range(kernel):
            j_end = kj + stride * out_w
            padded[:, :, ki:i_end:stride, kj:j_end:stride] += cols6[:, :, ki, kj, :, :]
    if padding > 0:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


class ReferenceConv2d(Conv2d):
    """:class:`~repro.nn.conv.Conv2d` on the reference im2col/col2im.

    Keeps its column matrix in every mode and has no parameter-only
    backward: ``backward_params`` is the base class's "run ``backward``,
    discard the result".
    """

    backward_params = Module.backward_params

    def forward(self, x: np.ndarray) -> np.ndarray:
        batch = x.shape[0]
        cols, out_h, out_w = im2col_reference(
            x, self.kernel_size, self.stride, self.padding
        )
        w_mat = self.weight.data.reshape(self.out_channels, -1)
        out = cols @ w_mat.T + self.bias.data
        self._cols = cols
        self._x_shape = x.shape
        self._out_hw = (out_h, out_w)
        return out.reshape(batch, out_h, out_w, self.out_channels).transpose(0, 3, 1, 2)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cols is None or self._x_shape is None or self._out_hw is None:
            raise RuntimeError("backward called before forward")
        batch = grad_out.shape[0]
        out_h, out_w = self._out_hw
        grad_mat = grad_out.transpose(0, 2, 3, 1).reshape(batch * out_h * out_w, -1)
        w_mat = self.weight.data.reshape(self.out_channels, -1)
        self.weight.grad += (grad_mat.T @ self._cols).reshape(self.weight.data.shape)
        self.bias.grad += grad_mat.sum(axis=0)
        grad_cols = grad_mat @ w_mat
        return col2im_reference(
            grad_cols, self._x_shape, self.kernel_size, self.stride, self.padding,
            out_h, out_w,
        )


class ReferenceMaxPool2d(MaxPool2d):
    """Original max pooling: reshape into windows, reduce, normalized mask."""

    # A class-level default, because as_reference() rebinds ``__class__``
    # on layers that were constructed as MaxPool2d.
    _mask: np.ndarray | None = None

    def _free_buffers(self) -> None:
        self._mask = None
        self._x_shape = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        batch, channels, height, width = x.shape
        p = self.pool_size
        if height % p or width % p:
            raise ValueError(
                f"MaxPool2d: spatial dims ({height},{width}) not divisible by {p}"
            )
        blocks = x.reshape(batch, channels, height // p, p, width // p, p)
        out = blocks.max(axis=(3, 5))
        expanded = out[:, :, :, None, :, None]
        mask = (blocks == expanded).astype(x.dtype)
        mask /= mask.sum(axis=(3, 5), keepdims=True)
        self._mask = mask
        self._x_shape = x.shape
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None or self._x_shape is None:
            raise RuntimeError("backward called before forward")
        grad_blocks = self._mask * grad_out[:, :, :, None, :, None]
        return grad_blocks.reshape(self._x_shape)


class ReferenceLSTMCell(LSTMCell):
    """Original LSTM step: per-timestep input GEMM, unfused gates."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        batch, steps, _ = x.shape
        hid = self.hidden_dim
        h = np.zeros((batch, hid))
        c = np.zeros((batch, hid))
        hs = np.zeros((batch, steps, hid))
        gates_i = np.zeros((batch, steps, hid))
        gates_f = np.zeros((batch, steps, hid))
        gates_g = np.zeros((batch, steps, hid))
        gates_o = np.zeros((batch, steps, hid))
        cells = np.zeros((batch, steps, hid))
        h_prevs = np.zeros((batch, steps, hid))
        c_prevs = np.zeros((batch, steps, hid))
        for t in range(steps):
            h_prevs[:, t] = h
            c_prevs[:, t] = c
            z = x[:, t] @ self.w_x.data + h @ self.w_h.data + self.bias.data
            gi = sigmoid_reference(z[:, :hid])
            gf = sigmoid_reference(z[:, hid : 2 * hid])
            gg = np.tanh(z[:, 2 * hid : 3 * hid])
            go = sigmoid_reference(z[:, 3 * hid :])
            c = gf * c + gi * gg
            h = go * np.tanh(c)
            gates_i[:, t], gates_f[:, t] = gi, gf
            gates_g[:, t], gates_o[:, t] = gg, go
            cells[:, t] = c
            hs[:, t] = h
        self._cache = {
            "x": x,
            "i": gates_i,
            "f": gates_f,
            "g": gates_g,
            "o": gates_o,
            "c": cells,
            "h_prev": h_prevs,
            "c_prev": c_prevs,
        }
        return hs

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        cache = self._cache
        x = cache["x"]
        batch, steps, _ = x.shape
        hid = self.hidden_dim
        grad_x = np.zeros_like(x)
        dh_next = np.zeros((batch, hid))
        dc_next = np.zeros((batch, hid))
        for t in reversed(range(steps)):
            gi, gf = cache["i"][:, t], cache["f"][:, t]
            gg, go = cache["g"][:, t], cache["o"][:, t]
            c, c_prev = cache["c"][:, t], cache["c_prev"][:, t]
            h_prev = cache["h_prev"][:, t]
            dh = grad_out[:, t] + dh_next
            tanh_c = np.tanh(c)
            dc = dh * go * (1.0 - tanh_c**2) + dc_next
            d_go = dh * tanh_c
            d_gi = dc * gg
            d_gg = dc * gi
            d_gf = dc * c_prev
            dz = np.concatenate(
                [
                    d_gi * gi * (1.0 - gi),
                    d_gf * gf * (1.0 - gf),
                    d_gg * (1.0 - gg**2),
                    d_go * go * (1.0 - go),
                ],
                axis=1,
            )
            self.w_x.grad += x[:, t].T @ dz
            self.w_h.grad += h_prev.T @ dz
            self.bias.grad += dz.sum(axis=0)
            grad_x[:, t] = dz @ self.w_x.data.T
            dh_next = dz @ self.w_h.data.T
            dc_next = dc * gf
        return grad_x


_REFERENCE_CLASSES = {
    Conv2d: ReferenceConv2d,
    MaxPool2d: ReferenceMaxPool2d,
    LSTMCell: ReferenceLSTMCell,
}


def as_reference(module: Module) -> Module:
    """Swap every optimized-kernel layer in a module tree to its
    reference twin, in place, and return the tree.

    The reference classes only override methods, so rebinding
    ``__class__`` is safe: parameters and attribute layout are untouched
    (a reference layer keeps its backward state in attributes of its own
    where the optimized layer's differ).  Used by the benchmark harness
    to time the "before" path on an identically initialized model.
    """
    for layer in module.modules():
        swap = _REFERENCE_CLASSES.get(type(layer))
        if swap is not None:
            layer.__class__ = swap
    return module
