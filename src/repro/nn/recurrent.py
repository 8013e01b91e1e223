"""Multi-layer LSTM with exact backpropagation through time.

The Sent140 model in the paper is a 2-layer LSTM followed by a fully
connected layer.  This module implements :class:`LSTMCell` (one layer
unrolled over a sequence, the package's one recurrent cell),
:class:`LSTM` (a stack of cells), and :class:`LastTimestep` (extracts the
final hidden state for classification heads).

Kernel design (``docs/performance.md``, "The Sent140 LSTM path"): every
sequence-long array is time-major ``(T, B, ·)`` and the gate cache
gate-major under that, ``(T, 4, B, H)``, so every elementwise operand of
a step is one contiguous block; a layer still takes and returns
``(B, T, ·)`` — its output is a transposed view, which hands the next
cell and :class:`LastTimestep` their contiguous blocks for free.  The
input projection streams through a window of ``w`` timesteps: at each
window boundary one ``(w*B, in) @ (in, 4H)`` GEMM fills the window, so
it never grows with ``T`` (``w`` follows
:func:`repro.nn.conv.gemm_chunks`, the byte budget and GEMM floor of
the streamed ``Conv2d`` pass).  A step activates its ``(B, 4H)`` row
with one branch-free sigmoid (then tanh over the g slot), and backward
applies the gate derivatives to all four gates at once.  All buffers
live in one scratch per cell, reused across a client's steps; an
eval-mode forward keeps no backward state.  BLAS GEMM rows are
independent and every elementwise chain keeps the reference's operands
and association, so every value matches
:class:`repro.nn.reference.ReferenceLSTMCell` bit for bit in float64 —
the equivalence tests enforce exactly that.  The
five per-step backward GEMMs are the documented floor: hoisted over the
sequence they are not byte-equal and bought under 10 % of the workload.
Everything follows the input/parameter dtype: float32 stays float32.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from repro.nn.activations import sigmoid
from repro.nn.conv import gemm_chunks
from repro.nn.initializers import glorot_uniform, orthogonal, zeros
from repro.nn.module import Module, Parameter


class LSTMCell(Module):
    """Single LSTM layer unrolled over time.

    Input: (B, T, input_dim).  Output: the full hidden sequence
    (B, T, hidden_dim).  Gate order in the fused weight matrix is
    [input, forget, cell, output].  The forget-gate bias starts at 1.0
    (standard remedy for vanishing memory early in training).

    Every buffer a forward and backward use lives in one scratch, a
    namespace of zeroed arrays.  A training forward keeps it while
    ``(x.shape, dtype)`` matches and ``free_buffers()`` drops it — the
    :class:`~repro.nn.conv.Im2colWorkspace` contract.  Reuse is
    layout-only: every buffer but ``zero`` (the initial state, never
    written) is rewritten before it is read, and none is returned to a
    caller.
    """

    def __init__(
        self, input_dim: int, hidden_dim: int, rng: np.random.Generator | None = None
    ) -> None:
        super().__init__()
        # xt and hs of the last training forward; its other backward state is in the scratch.
        self._cache: dict | None = None
        self._scratch: SimpleNamespace | None = None
        rng = rng if rng is not None else np.random.default_rng(0)
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.w_x = Parameter(
            glorot_uniform(rng, (input_dim, 4 * hidden_dim), input_dim, hidden_dim),
            name="lstm.w_x",
        )
        self.w_h = Parameter(
            np.concatenate(
                [orthogonal(rng, (hidden_dim, hidden_dim)) for _ in range(4)], axis=1
            ),
            name="lstm.w_h",
        )
        bias = zeros((4 * hidden_dim,))
        bias[hidden_dim : 2 * hidden_dim] = 1.0  # forget gate
        self.bias = Parameter(bias, name="lstm.bias")

    def _free_buffers(self) -> None:
        self._cache = None
        self._scratch = None

    def _begin(
        self, x: np.ndarray
    ) -> tuple[SimpleNamespace, np.ndarray, list[tuple[int, int]]]:
        """Scratch for a forward over ``x`` (B, T, D), ``x`` as a contiguous
        (T, B, D) — copied into the scratch only when ``x`` is not already
        time-major underneath — and the ``(start, stop)`` timestep windows
        whose input projection ``x @ w_x`` the scratch's ``xw`` holds one at
        a time.  A training forward gets the scratch the cell keeps, ``T``
        steps of backward state deep; an eval forward a throwaway one a
        single step deep, so it leaves nothing behind.
        """
        batch, steps, in_dim = x.shape
        if steps == 0:
            raise ValueError(f"{type(self).__name__}: empty sequence, input shape {x.shape}")
        w_x = self.w_x.data
        hid, dtype = self.hidden_dim, np.result_type(x.dtype, w_x.dtype)
        if batch == 1:
            # A batch of one keeps its per-step products: a one-row product
            # is a gemv, which sums in another order than a GEMM's rows.
            window, spans = 1, [(t, t + 1) for t in range(steps)]
        else:
            window, spans = gemm_chunks(
                steps, batch, batch * in_dim * 4 * hid, batch * 4 * hid * dtype.itemsize
            )
        key = (x.shape, dtype, window)
        ws = self._scratch if self.training else None
        if ws is None or ws.key != key:
            depth = steps if self.training else 1
            row, state, slots = (batch, 4 * hid), (batch, hid), (4, batch, hid)
            shapes = dict(
                cells=(depth, batch, hid), tanh_cells=(depth, batch, hid), gates=(depth, *slots),
                z=row, act=row, prod=state, xw=(window, batch, 4 * hid), zero=state,
            )
            if self.training:
                shapes.update(
                    f=slots, g=slots, s=slots, dz=row, q=state, dh=state, dc=state,
                    dh_next=state, dc_next=state, gw_x=w_x.shape, gw_h=self.w_h.data.shape,
                    gbias=(4 * hid,),
                )
            ws = SimpleNamespace(
                key=key, **{name: np.zeros(shape, dtype=dtype) for name, shape in shapes.items()}
            )
            if self.training:
                self._scratch = ws
        # A recurrent layer's output is already time-major underneath.
        xt = x.transpose(1, 0, 2)
        if not xt.flags.c_contiguous:
            if getattr(ws, "xt", None) is None:
                ws.xt = np.zeros(xt.shape, dtype=dtype)
            ws.xt[...] = xt
            xt = ws.xt
        return ws, xt, spans

    def forward(self, x: np.ndarray) -> np.ndarray:
        ws, xt, spans = self._begin(x)
        steps, batch, in_dim = xt.shape
        hid = self.hidden_dim
        w_x, w_h, bias = self.w_x.data, self.w_h.data, self.bias.data
        # A fresh array: the caller (the next cell keeps it for backward) owns it.
        hs = np.empty((steps, batch, hid), dtype=ws.xw.dtype)
        depth = len(ws.gates)
        z, act, prod = ws.z, ws.act, ws.prod
        z_g = z[:, 2 * hid : 3 * hid]
        act_slots = act.reshape(batch, 4, hid).transpose(1, 0, 2)
        h = c = ws.zero
        spans = iter(spans)
        start = stop = 0
        for t in range(steps):
            if t == stop:
                # The next window of the input projection in one GEMM, whose
                # rows are independent: xw[t - start] is bit-identical to
                # x[:, t] @ w_x.
                start, stop = next(spans)
                np.matmul(
                    xt[start:stop].reshape(-1, in_dim), w_x,
                    out=ws.xw[: stop - start].reshape(-1, 4 * hid),
                )
            np.matmul(h, w_h, out=z)
            z += ws.xw[t - start]
            z += bias
            # One sigmoid over the whole (B, 4H) row, regrouped gate-major into
            # the cache (each gate a contiguous (B, H) block), then tanh over g.
            k = t % depth
            g = ws.gates[k]
            sigmoid(z, out=act)
            g[...] = act_slots
            gi, gf, gg, go = g
            np.tanh(z_g, out=gg)
            # c = gf * c_prev + gi * gg, accumulated in the cache slot.
            ct = ws.cells[k]
            np.multiply(gf, c, out=ct)
            np.multiply(gi, gg, out=prod)
            ct += prod
            c = ct
            # h = go * tanh(c); tanh(c_t) is needed again by backward.
            tc = ws.tanh_cells[k]
            np.tanh(ct, out=tc)
            h = hs[t]
            np.multiply(go, tc, out=h)
        self._cache = {"xt": xt, "hs": hs} if self.training else None
        return hs.transpose(1, 0, 2)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        xt, hs, ws = self._cache["xt"], self._cache["hs"], self._scratch
        steps, batch, _ = xt.shape
        # dz = (F * G) * S on all four gates at once: the reference's
        # association gate by gate, x * 1.0 being x where it has a factor fewer.
        #   i: (dc * gg) * gi * (1 - gi)        f: (dc * c_prev) * gf * (1 - gf)
        #   g: (dc * gi) * (1 - gg**2) * 1.0    o: (dh * tanh_c) * go * (1 - go)
        # G is the gate block with 1 - gg**2 in its g slot, S one minus the
        # gate block with 1.0 there.
        f, g, s, q = ws.f, ws.g, ws.s, ws.q
        dz, dh, dc, dh_next, dc_next = ws.dz, ws.dh, ws.dc, ws.dh_next, ws.dc_next
        dz_slots = dz.reshape(batch, 4, self.hidden_dim).transpose(1, 0, 2)
        dh_next[...] = dc_next[...] = 0.0
        gw_x, gw_h, gbias = ws.gw_x, ws.gw_h, ws.gbias
        w_x_t, w_h_t = self.w_x.data.T, self.w_h.data.T
        grad_out = grad_out.transpose(1, 0, 2)
        # The GEMMs stay per-step with the reference's operands, shapes
        # and order: hoisted over the sequence they block (and sum)
        # differently and break bitwise float64 identity.
        grad_xt = np.empty(xt.shape, dtype=dz.dtype)
        for t in reversed(range(steps)):
            gt, tanh_c = ws.gates[t], ws.tanh_cells[t]
            gi, gf, gg, go = gt
            c_prev, h_prev = (ws.cells[t - 1], hs[t - 1]) if t > 0 else (ws.zero, ws.zero)
            np.add(grad_out[t], dh_next, out=dh)
            # dc = dh * go * (1 - tanh_c**2) + dc_next
            np.multiply(dh, go, out=dc)
            np.multiply(tanh_c, tanh_c, out=q)
            np.subtract(1.0, q, out=q)
            dc *= q
            dc += dc_next
            np.multiply(dc, gg, out=f[0])
            np.multiply(dc, c_prev, out=f[1])
            np.multiply(dc, gi, out=f[2])
            np.multiply(dh, tanh_c, out=f[3])
            g[...] = gt
            np.multiply(gg, gg, out=g[2])
            np.subtract(1.0, g[2], out=g[2])
            f *= g
            np.subtract(1.0, gt, out=s)
            s[2] = 1.0
            f *= s
            dz_slots[...] = f  # back to the (B, 4H) rows the GEMMs take
            np.matmul(xt[t].T, dz, out=gw_x)
            self.w_x.grad += gw_x
            np.matmul(h_prev.T, dz, out=gw_h)
            self.w_h.grad += gw_h
            np.add.reduce(dz, axis=0, out=gbias)
            self.bias.grad += gbias
            np.matmul(dz, w_x_t, out=grad_xt[t])
            np.matmul(dz, w_h_t, out=dh_next)
            np.multiply(dc, gf, out=dc_next)
        return grad_xt.transpose(1, 0, 2)


class LSTM(Module):
    """A stack of :class:`LSTMCell` layers (the paper uses 2)."""

    def __init__(
        self,
        input_dim: int,
        hidden_dim: int,
        num_layers: int = 2,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.num_layers = num_layers
        dims = [input_dim] + [hidden_dim] * num_layers
        self.cells = [
            LSTMCell(dims[i], dims[i + 1], rng=rng) for i in range(num_layers)
        ]

    def forward(self, x: np.ndarray) -> np.ndarray:
        for cell in self.cells:
            x = cell.forward(x)
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        for cell in reversed(self.cells):
            grad_out = cell.backward(grad_out)
        return grad_out


class LastTimestep(Module):
    """Select the last timestep of a sequence: (B, T, H) -> (B, H)."""

    def __init__(self) -> None:
        super().__init__()
        self._shape: tuple[int, ...] | None = None

    def _free_buffers(self) -> None:
        self._shape = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return x[:, -1, :]

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called before forward")
        # Time-major like the recurrent layers' own arrays, so the cell
        # below reads one contiguous block per step.
        batch, steps, width = self._shape
        grad = np.zeros((steps, batch, width), dtype=grad_out.dtype)
        grad[-1] = grad_out
        return grad.transpose(1, 0, 2)
