"""GRU layer with exact backpropagation through time.

The paper's sequence model is an LSTM; the GRU is the standard lighter
alternative (fewer parameters per unit — relevant when the model itself
is the federated payload), provided for library completeness and
payload-size experiments.  Gate convention follows Cho et al. 2014:

    z_t = sigmoid(x_t W_z + h_{t-1} U_z + b_z)        (update gate)
    r_t = sigmoid(x_t W_r + h_{t-1} U_r + b_r)        (reset gate)
    n_t = tanh(x_t W_n + r_t * (h_{t-1} U_n) + b_n)   (candidate)
    h_t = (1 - z_t) * n_t + z_t * h_{t-1}
"""

from __future__ import annotations

import numpy as np

from repro.nn.activations import sigmoid
from repro.nn.initializers import glorot_uniform, orthogonal, zeros
from repro.nn.module import Module, Parameter
from repro.nn.recurrent import RecurrentCell


class GRUCell(RecurrentCell):
    """Single GRU layer unrolled over time: (B, T, D) -> (B, T, H)."""

    def __init__(
        self, input_dim: int, hidden_dim: int, rng: np.random.Generator | None = None
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.w_x = Parameter(
            glorot_uniform(rng, (input_dim, 3 * hidden_dim), input_dim, hidden_dim),
            name="gru.w_x",
        )
        self.w_h = Parameter(
            np.concatenate(
                [orthogonal(rng, (hidden_dim, hidden_dim)) for _ in range(3)], axis=1
            ),
            name="gru.w_h",
        )
        self.bias = Parameter(zeros((3 * hidden_dim,)), name="gru.bias")

    def _scratch_shapes(self, batch: int, depth: int) -> dict:
        hid = self.hidden_dim
        shapes = dict.fromkeys(("z", "r", "n", "hu_n"), (depth, batch, hid))
        if self.training:
            shapes.update(
                dxw=(batch, 3 * hid), gw_x=self.w_x.data.shape, gbias=(3 * hid,),
                gw_hb=(hid, hid),
            )
        return shapes

    def forward(self, x: np.ndarray) -> np.ndarray:
        # The input projection for the whole sequence is one GEMM; with the
        # bias added, xw_all[t] matches the per-step x[:, t] @ w_x + bias
        # of the reference bit for bit.
        ws, xt = self._begin(x)
        steps, batch, _ = xt.shape
        hid = self.hidden_dim
        xw_all = ws.xw
        xw_all += self.bias.data
        # The output is a fresh array: the caller owns it.
        hs = np.empty((steps, batch, hid), dtype=xw_all.dtype)
        depth = len(ws.z)
        u_z = self.w_h.data[:, :hid]
        u_r = self.w_h.data[:, hid : 2 * hid]
        u_n = self.w_h.data[:, 2 * hid :]
        h = ws.zero
        for t in range(steps):
            xw, k = xw_all[t], t % depth
            z = sigmoid(xw[:, :hid] + h @ u_z, out=ws.z[k])
            r = sigmoid(xw[:, hid : 2 * hid] + h @ u_r, out=ws.r[k])
            hu_n = np.matmul(h, u_n, out=ws.hu_n[k])
            n = np.tanh(xw[:, 2 * hid :] + r * hu_n, out=ws.n[k])
            ht = hs[t]
            np.multiply(1.0 - z, n, out=ht)
            ht += z * h
            h = ht
        self._cache = {"xt": xt, "hs": hs} if self.training else None
        return hs.transpose(1, 0, 2)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        # h_t is exactly hs[t], so h_prev at step t is hs[t - 1] — no
        # separate h_prev cache needed.
        xt, hs, ws = self._cache["xt"], self._cache["hs"], self._scratch
        steps = len(xt)
        hid = self.hidden_dim
        u_z = self.w_h.data[:, :hid]
        u_r = self.w_h.data[:, hid : 2 * hid]
        u_n = self.w_h.data[:, 2 * hid :]
        grad_out = grad_out.transpose(1, 0, 2)
        # grad_x stays per-step to match the reference's BLAS call shapes
        # exactly (see the LSTM backward note on transposed operands).
        grad_xt = np.empty(xt.shape, dtype=hs.dtype)
        dxw, gw_x, gbias, gw_hb = ws.dxw, ws.gw_x, ws.gbias, ws.gw_hb
        dh_next = ws.zero
        for t in reversed(range(steps)):
            z, r, n, hu_n = ws.z[t], ws.r[t], ws.n[t], ws.hu_n[t]
            h_prev = hs[t - 1] if t > 0 else ws.zero
            dh = grad_out[t] + dh_next
            dz = dh * (h_prev - n)
            dn = dh * (1.0 - z)
            dh_prev = dh * z
            # Pre-activation gradients (fused layout [z, r, n]).
            dn_pre = dn * (1.0 - n**2)
            dr = dn_pre * hu_n
            dxw[:, :hid] = dz * z * (1.0 - z)
            dxw[:, hid : 2 * hid] = dr * r * (1.0 - r)
            dxw[:, 2 * hid :] = dn_pre
            dz_pre = dxw[:, :hid]
            dr_pre = dxw[:, hid : 2 * hid]
            # Parameter gradients.
            np.matmul(xt[t].T, dxw, out=gw_x)
            self.w_x.grad += gw_x
            np.add.reduce(dxw, axis=0, out=gbias)
            self.bias.grad += gbias
            h_prev_t = h_prev.T
            np.matmul(h_prev_t, dz_pre, out=gw_hb)
            self.w_h.grad[:, :hid] += gw_hb
            np.matmul(h_prev_t, dr_pre, out=gw_hb)
            self.w_h.grad[:, hid : 2 * hid] += gw_hb
            np.matmul(h_prev_t, dn_pre * r, out=gw_hb)
            self.w_h.grad[:, 2 * hid :] += gw_hb
            np.matmul(dxw, self.w_x.data.T, out=grad_xt[t])
            # Recurrent gradient.
            dh_prev = (
                dh_prev
                + dz_pre @ u_z.T
                + dr_pre @ u_r.T
                + (dn_pre * r) @ u_n.T
            )
            dh_next = dh_prev
        return grad_xt.transpose(1, 0, 2)


class GRU(Module):
    """A stack of :class:`GRUCell` layers."""

    def __init__(
        self,
        input_dim: int,
        hidden_dim: int,
        num_layers: int = 1,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.num_layers = num_layers
        dims = [input_dim] + [hidden_dim] * num_layers
        self.cells = [GRUCell(dims[i], dims[i + 1], rng=rng) for i in range(num_layers)]

    def forward(self, x: np.ndarray) -> np.ndarray:
        for cell in self.cells:
            x = cell.forward(x)
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        for cell in reversed(self.cells):
            grad_out = cell.backward(grad_out)
        return grad_out
