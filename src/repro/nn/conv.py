"""2-D convolution implemented with im2col.

Inputs follow the (batch, channels, height, width) convention.  The
im2col/col2im pair turns convolution into a single matrix multiply, which
is the only way to make a numpy CNN fast enough for the federated
benchmarks on one CPU core.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.nn.initializers import he_normal, zeros
from repro.nn.module import Module, Parameter


# Samples one fold product covers.  Rows of ``cols`` are sample-major, so
# a batch is a few products with the same matrix and the table's size
# does not depend on the batch; the samples left over after the last
# full block go through a one-sample table, one product each.
_FOLD_SAMPLES = 8

# Bytes of a streamed GEMM operand a chunk holds (at least one unit):
# a forward-only Conv2d pass's ``cols``, an LSTMCell's input-projection
# window.  Its workspace and peak stay this size whatever the batch.
_EVAL_CHUNK_BYTES = 1 << 20

# Fewest multiply-adds a chunk's GEMM may have unless the whole pass has
# fewer.  GEMM rows are independent only within one BLAS kernel, and
# OpenBLAS hands products of at most 100**3 of them to its small-matrix
# kernels, which sum in another order (so does a one-row gemv).
_GEMM_FLOOR = 1 << 20


def gemm_chunks(
    count: int, unit_rows: int, unit_macs: int, unit_bytes: int
) -> tuple[int, list[tuple[int, int]]]:
    """Cut ``count`` units of a row-independent GEMM into chunks.

    A unit (a sample of ``cols``, a timestep of an input projection) is
    ``unit_rows`` GEMM rows, ``unit_macs`` multiply-adds and
    ``unit_bytes`` of the streamed operand.  A chunk takes
    :data:`_EVAL_CHUNK_BYTES` of it, but never fewer units than
    :data:`_GEMM_FLOOR` multiply-adds or one row (a gemv) unless the
    whole pass is that small, so every chunk goes through the BLAS
    kernel the one-shot product would.  Returns the chunk size and the
    ``(start, stop)`` spans; a short last span reaches back into the one
    before, and the rows it rewrites get the same bits.
    """
    least = max(-(-_GEMM_FLOOR // unit_macs), 2 if unit_rows == 1 else 1)
    size = min(count, max(least, _EVAL_CHUNK_BYTES // unit_bytes))
    spans = []
    for start in range(0, count, size):
        stop = min(start + size, count)
        spans.append((min(start, max(stop - least, 0)), stop))
    return size, spans


@lru_cache(maxsize=32)
def _gather_index(
    channels: int, pad_h: int, pad_w: int, kernel: int, stride: int, out_h: int, out_w: int
) -> np.ndarray:
    """Read-only ``index[oh, ow, c, ki, kj]`` = flat offset of
    ``padded[c, oh*s+ki, ow*s+kj]`` within one sample, flattened: the
    slot order of the reference im2col.

    Shape-keyed and shared process-wide: ``free_buffers()`` drops a
    layer's workspace after every client, the table it gathers through
    is the same every time.
    """
    k = np.arange(kernel)
    row = (np.arange(out_h) * stride)[:, None, None, None, None] + k[:, None]
    col = (np.arange(out_w) * stride)[:, None, None, None] + k
    plane = np.arange(channels)[:, None, None] * (pad_h * pad_w)
    index = (plane + row * pad_w + col).reshape(-1)  # OH*OW*C*K*K offsets
    index.setflags(write=False)
    return index


@lru_cache(maxsize=16)
def _fold_matrix(
    samples: int,
    channels: int,
    height: int,
    width: int,
    kernel: int,
    stride: int,
    padding: int,
    out_h: int,
    out_w: int,
    dtype: np.dtype,
):
    """Read-only 0/1 CSR matrix that folds ``samples`` samples' column
    slots back onto their input pixels (:func:`col2im` as a product).

    Row ``(b, c, i, j)`` lists the slots that land on input pixel
    ``(i, j)`` in the reference's ``(ki, kj)`` order.  A CSR matvec adds a
    row's stored entries one after another starting from zero, so that
    order *is* :func:`repro.nn.reference.col2im_reference`'s accumulation
    order — the indices are stored unsorted on purpose and must never go
    through ``sort_indices()`` / ``sum_duplicates()``.  Slots that land on
    the padding border have no row: they are never computed.
    """
    # Imported here so that models without a Conv2d input gradient never
    # load scipy.
    from scipy.sparse import csr_array, get_index_dtype

    pad_h, pad_w = height + 2 * padding, width + 2 * padding
    target = _gather_index(channels, pad_h, pad_w, kernel, stride, out_h, out_w)
    plane, offset = np.divmod(target, pad_h * pad_w)
    i, j = np.divmod(offset, pad_w)
    i -= padding
    j -= padding
    inside = (i >= 0) & (i < height) & (j >= 0) & (j < width)
    pixel = (plane * height + i) * width + j  # meaningful where ``inside``
    # Visit the slots (ki, kj)-major and group them by pixel with a stable
    # sort: within a pixel they stay in (ki, kj) order.
    slots = np.arange(target.size).reshape(out_h, out_w, channels, kernel, kernel)
    slots = slots.transpose(3, 4, 0, 1, 2).reshape(-1)
    slots = slots[inside[slots]]
    slots = slots[np.argsort(pixel[slots], kind="stable")]
    pixels = channels * height * width
    per_pixel = np.bincount(pixel[slots], minlength=pixels)

    index_dtype = get_index_dtype(maxval=samples * target.size)
    indptr = np.zeros(samples * pixels + 1, dtype=index_dtype)
    np.cumsum(np.tile(per_pixel, samples), out=indptr[1:])
    indices = (np.arange(samples)[:, None] * target.size + slots).reshape(-1)
    fold = csr_array(
        (np.ones(indices.size, dtype=dtype), indices.astype(index_dtype), indptr),
        shape=(samples * pixels, samples * target.size),
    )
    for table in (fold.data, fold.indices, fold.indptr):
        table.setflags(write=False)
    return fold


class Im2colWorkspace:
    """Scratch for unfolding inputs of one shape and dtype into GEMM layout.

    Owns the zero-bordered padded copy of the input and the column
    matrix, sized for ``x_shape[0]`` samples; the gather table that maps
    one sample's padded pixels to its ``OH*OW*C*K*K`` column slots is the
    shared :func:`_gather_index`.  :class:`Conv2d` keeps two per layer
    and reuses each while its shape matches: a whole-batch one for
    training-mode passes, whose ``cols`` feed the weight gradient, and a
    chunk-sized one that a forward-only pass streams its batch through a
    few samples at a time (:data:`_EVAL_CHUNK_BYTES`).  Either way a
    train step or a full-shard pass stops paying for a fresh
    multi-megabyte ``cols`` (``mmap`` plus page faults) on every call.
    Reuse is layout-only: every slot a :meth:`unfold` returns is
    rewritten by it, and nothing here is ever returned to a caller of
    the layer.
    """

    def __init__(
        self,
        x_shape: tuple[int, int, int, int],
        dtype: np.dtype,
        kernel: int,
        stride: int,
        padding: int,
    ) -> None:
        batch, channels, height, width = x_shape
        pad_h, pad_w = height + 2 * padding, width + 2 * padding
        self.key = (x_shape, dtype)
        self.padding = padding
        self.sample_size = channels * pad_h * pad_w
        self.out_h = (pad_h - kernel) // stride + 1
        self.out_w = (pad_w - kernel) // stride + 1
        # The border is written once here and never again: unfold() only
        # overwrites the interior.
        self.padded = (
            np.zeros((batch, channels, pad_h, pad_w), dtype=dtype) if padding > 0 else None
        )
        self.cols = np.empty(
            (batch * self.out_h * self.out_w, channels * kernel * kernel), dtype=dtype
        )
        self.index = _gather_index(
            channels, pad_h, pad_w, kernel, stride, self.out_h, self.out_w
        )

    def unfold(self, x: np.ndarray) -> np.ndarray:
        """Fill and return the rows of :attr:`cols` that ``x`` covers
        (all of them when ``x`` has the workspace's batch size)."""
        batch = x.shape[0]
        if self.padded is not None:
            p = self.padding
            padded = self.padded[:batch]
            padded[:, :, p:-p, p:-p] = x
            x = padded
        cols = self.cols[: batch * self.out_h * self.out_w]
        # One gather per sample row; mode="clip" only tells numpy the
        # indices need no bounds check (they are in range by
        # construction), which lets it write straight into ``out``.
        np.take(
            x.reshape(batch, self.sample_size), self.index, axis=1,
            out=cols.reshape(batch, self.index.size), mode="clip",
        )
        return cols


def im2col(
    x: np.ndarray, kernel: int, stride: int, padding: int
) -> tuple[np.ndarray, int, int]:
    """Unfold ``x`` (B, C, H, W) into columns of shape (B*OH*OW, C*K*K).

    A table-driven gather (:class:`Im2colWorkspace`) with no Python
    loops.  Bit-identical to the loop-based reference
    (:func:`repro.nn.reference.im2col_reference`): the same elements land
    in the same slots, only the gather strategy differs.

    Returns the column matrix and the output spatial dims (OH, OW).
    """
    workspace = Im2colWorkspace(x.shape, x.dtype, kernel, stride, padding)
    return workspace.unfold(x), workspace.out_h, workspace.out_w


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kernel: int,
    stride: int,
    padding: int,
    out_h: int,
    out_w: int,
) -> np.ndarray:
    """Inverse of :func:`im2col`: scatter-add columns back to image shape.

    One sparse product per block of samples with the memoized
    :func:`_fold_matrix`: each input pixel sums the column slots that
    land on it in the reference's order, so the result carries the bits
    of :func:`repro.nn.reference.col2im_reference` in every dtype; the
    padding border is never computed.  Returns a fresh C-contiguous
    ``(B, C, H, W)`` array.
    """
    batch, channels, height, width = x_shape
    # One sample's slots per row.
    cols = cols.reshape(batch, out_h * out_w * channels * kernel * kernel)
    image = np.empty(x_shape, dtype=cols.dtype)
    start = 0
    while start < batch:
        samples = _FOLD_SAMPLES if batch - start >= _FOLD_SAMPLES else 1
        fold = _fold_matrix(
            samples, channels, height, width, kernel, stride, padding, out_h, out_w, cols.dtype
        )
        stop = start + samples
        image[start:stop].reshape(-1)[:] = fold @ cols[start:stop].reshape(-1)
        start = stop
    return image


class Conv2d(Module):
    """Standard 2-D convolution with square kernels.

    A training-mode forward unfolds the whole batch into one ``cols``
    and keeps it for the weight gradient.  A forward-only (eval-mode)
    pass keeps nothing for backward, so it streams: it unfolds and
    multiplies a few samples at a time through one chunk-sized
    :class:`Im2colWorkspace`, each chunk's GEMM writing its rows of the
    output, and adds the bias once at the end.  GEMM rows are
    independent, so every output element is the same dot product over
    the same ``C*K*K`` slots either way and the two passes agree bit for
    bit — as long as both go through the same BLAS kernel: no chunk is
    cut below :data:`_GEMM_FLOOR` multiply-adds or to one GEMM row unless
    the whole pass is.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = Parameter(
            he_normal(rng, (out_channels, in_channels, kernel_size, kernel_size), fan_in),
            name="conv.weight",
        )
        self.bias = Parameter(zeros((out_channels,)), name="conv.bias")
        # Backward state: the column matrix of the last training-mode
        # forward (it aliases the workspace's ``cols``).
        self._cols: np.ndarray | None = None
        self._x_shape: tuple[int, int, int, int] | None = None
        self._out_hw: tuple[int, int] | None = None
        self._workspace: Im2colWorkspace | None = None
        self._eval_workspace: Im2colWorkspace | None = None

    def _free_buffers(self) -> None:
        self._cols = None
        self._x_shape = None
        self._out_hw = None
        self._workspace = None
        self._eval_workspace = None

    def _reuse(
        self, workspace: Im2colWorkspace | None, x_shape: tuple, dtype: np.dtype
    ) -> Im2colWorkspace:
        """``workspace`` if it fits ``x_shape`` and ``dtype``, else a new one."""
        if workspace is None or workspace.key != (x_shape, dtype):
            workspace = Im2colWorkspace(
                x_shape, dtype, self.kernel_size, self.stride, self.padding
            )
        return workspace

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training:
            self._cols = None
            return self._forward_streamed(x)
        batch = x.shape[0]
        workspace = self._workspace = self._reuse(self._workspace, x.shape, x.dtype)
        workspace.unfold(x)
        cols = workspace.cols
        out_h, out_w = workspace.out_h, workspace.out_w
        w_mat = self.weight.data.reshape(self.out_channels, -1)  # (O, C*K*K)
        out = cols @ w_mat.T  # (B*OH*OW, O), fresh: it is what the caller gets
        out += self.bias.data
        self._cols = cols
        self._x_shape = x.shape
        self._out_hw = (out_h, out_w)
        return out.reshape(batch, out_h, out_w, self.out_channels).transpose(0, 3, 1, 2)

    def _forward_streamed(self, x: np.ndarray) -> np.ndarray:
        batch, channels, height, width = x.shape
        k, s, p = self.kernel_size, self.stride, self.padding
        out_h = (height + 2 * p - k) // s + 1
        out_w = (width + 2 * p - k) // s + 1
        rows = out_h * out_w  # GEMM rows per sample
        depth = channels * k * k
        samples, spans = gemm_chunks(
            batch, rows, rows * depth * self.out_channels, rows * depth * x.dtype.itemsize
        )
        workspace = self._eval_workspace = self._reuse(
            self._eval_workspace, (samples, channels, height, width), x.dtype
        )
        w_mat = self.weight.data.reshape(self.out_channels, -1)  # (O, C*K*K)
        out = np.empty((batch * rows, self.out_channels), dtype=np.result_type(x, w_mat))
        for start, stop in spans:
            np.matmul(
                workspace.unfold(x[start:stop]), w_mat.T, out=out[start * rows : stop * rows]
            )
        out += self.bias.data
        return out.reshape(batch, out_h, out_w, self.out_channels).transpose(0, 3, 1, 2)

    def _accumulate_param_grads(self, grad_out: np.ndarray) -> np.ndarray:
        """Add this batch's weight/bias gradients; return ``grad_out`` in
        GEMM layout (B*OH*OW, O)."""
        if self._cols is None or self._x_shape is None or self._out_hw is None:
            raise RuntimeError("backward called before forward")
        batch = grad_out.shape[0]
        out_h, out_w = self._out_hw
        grad_mat = grad_out.transpose(0, 2, 3, 1).reshape(batch * out_h * out_w, -1)
        self.weight.grad += (grad_mat.T @ self._cols).reshape(self.weight.data.shape)
        self.bias.grad += grad_mat.sum(axis=0)
        return grad_mat

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad_mat = self._accumulate_param_grads(grad_out)
        out_h, out_w = self._out_hw
        w_mat = self.weight.data.reshape(self.out_channels, -1)
        grad_cols = grad_mat @ w_mat  # (B*OH*OW, C*K*K)
        return col2im(
            grad_cols, self._x_shape, self.kernel_size, self.stride, self.padding, out_h, out_w
        )

    def backward_params(self, grad_out: np.ndarray) -> None:
        # Skips ``grad_mat @ w_mat`` and col2im, the most expensive calls
        # of a train step when this is the first layer.
        self._accumulate_param_grads(grad_out)
