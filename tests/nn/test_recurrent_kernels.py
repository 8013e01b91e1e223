"""The recurrent hot path: bytes, workspaces and modes.

``sigmoid`` and ``LSTMCell``/``LSTM`` ship under the kernel
contract of ``test_kernel_equivalence.py`` — in float64 the same bits as
the frozen twins in :mod:`repro.nn.reference` — at the shapes the
``bench/`` Sent140 workload runs (B=32 training steps, B=256 eval
batches, T=22, 12 -> 64 -> 64) and at the degenerate ones.  The second
half pins what the time-major reused scratch and the stateless eval
forward must not change: a returned array is never rewritten, a stale
scratch is never read, and a forward-only pass leaves nothing behind.
"""

import copy

import numpy as np
import pytest

from repro import nn
from repro.data.dataset import ArrayDataset
from repro.fl.client import local_sgd_steps
from repro.fl.config import FLConfig
from repro.models import build_lstm_classifier
from repro.nn.activations import sigmoid
from repro.nn.recurrent import LSTMCell
from repro.nn.reference import as_reference, sigmoid_reference

CELLS = [LSTMCell]


def _assert_same_bytes(got, want):
    """Bitwise equality; a NaN matches any NaN (its sign bit is not a value)."""
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


def _grads(module):
    return [p.grad.copy() for p in module.parameters()]


def _twins(cell_cls, in_dim, hid, seed=5):
    cell = cell_cls(in_dim, hid, rng=np.random.default_rng(seed))
    return cell, as_reference(copy.deepcopy(cell))


# -- sigmoid --------------------------------------------------------------------

SIGMOID_VALUES = {
    "zeros": lambda r, n: np.where(r.random(n) < 0.5, 0.0, -0.0),
    "inf": lambda r, n: np.where(r.random(n) < 0.5, np.inf, -np.inf),
    "nan": lambda r, n: np.where(r.random(n) < 0.3, np.nan, r.normal(size=n)),
    "subnormal": lambda r, n: r.choice([5e-324, -5e-324, 1e-310, -1e-310, 1e-45, -1e-45], n),
    "huge": lambda r, n: r.choice([-1.0, 1.0], n) * r.uniform(700.0, 1e6, n),
    "random": lambda r, n: r.normal(size=n) * 5.0,
}


@pytest.mark.parametrize("layout", ["contiguous", "column_sliced", "out_fresh", "out_alias"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("values", sorted(SIGMOID_VALUES))
def test_sigmoid_bytes_match_reference(rng, values, dtype, layout):
    with np.errstate(all="ignore"):
        block = SIGMOID_VALUES[values](rng, 6 * 40).reshape(6, 40).astype(dtype)
        x = block[:, 7:29] if layout == "column_sliced" else block
        # The reference computes in the input dtype and stores float64.
        want = sigmoid_reference(x.copy()).astype(dtype)
        if layout == "out_fresh":
            out = np.full(x.shape, 7.0, dtype=dtype)
            got = sigmoid(x, out=out)
            assert got is out
        elif layout == "out_alias":
            got = sigmoid(x, out=x)
            assert got is x
        else:
            kept = x.copy()
            got = sigmoid(x)
            _assert_same_bytes(x, kept)  # the input is left alone
    assert got.dtype == dtype
    _assert_same_bytes(got, want)


def test_sigmoid_in_place_reads_the_sign_before_it_overwrites():
    """``out=x`` used to return the positive-side value everywhere: the
    mask was evaluated on the already overwritten array."""
    x = np.array([0.5, -0.5, -np.inf, 30.0, -30.0])
    want = sigmoid(x.copy())
    np.testing.assert_array_equal(sigmoid(x, out=x), want)
    np.testing.assert_allclose(want[:3], [0.6224593312, 0.3775406688, 0.0])


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.bool_])
def test_sigmoid_integer_input_is_computed_in_float64(dtype):
    x = np.array([[-3, 0, 1], [2, -1, 0]]).astype(dtype)
    got = sigmoid(x)
    assert got.dtype == np.float64
    _assert_same_bytes(got, sigmoid_reference(x.astype(np.float64)))
    _assert_same_bytes(sigmoid(x, out=np.empty(x.shape)), got)


# -- cells and stacks vs the frozen reference, float64 ---------------------------

# (batch, steps, in_dim, hid)
CELL_SHAPES = {
    "bench-train-bottom": (32, 22, 12, 64),
    "bench-train-top": (32, 22, 64, 64),
    "bench-eval": (256, 22, 12, 64),
    "batch-1": (1, 9, 5, 8),
    "steps-1": (6, 1, 5, 8),
    "one-by-one": (1, 1, 3, 4),
}


@pytest.mark.parametrize("shape", sorted(CELL_SHAPES))
@pytest.mark.parametrize("cell_cls", CELLS)
def test_cell_bytes_match_reference(rng, cell_cls, shape):
    batch, steps, in_dim, hid = CELL_SHAPES[shape]
    cell, ref = _twins(cell_cls, in_dim, hid)
    x = rng.normal(size=(batch, steps, in_dim))
    grad_out = rng.normal(size=(batch, steps, hid))
    want = ref.forward(x)
    _assert_same_bytes(cell.forward(x), want)
    _assert_same_bytes(cell.backward(grad_out), ref.backward(grad_out))
    for got_grad, want_grad in zip(_grads(cell), _grads(ref)):
        _assert_same_bytes(got_grad, want_grad)
    # The forward-only pass computes the same bytes without the caches.
    _assert_same_bytes(cell.eval().forward(x), want)


@pytest.mark.parametrize("cell_cls", CELLS)
def test_cell_bytes_match_reference_on_non_contiguous_arrays(rng, cell_cls):
    cell, ref = _twins(cell_cls, 6, 8)
    x = rng.normal(size=(5, 14, 9))[:, ::2, 2:8]  # neither batch- nor time-major
    grad_out = np.asfortranarray(rng.normal(size=(5, 7, 8)))
    assert not x.flags.c_contiguous and not grad_out.flags.c_contiguous
    _assert_same_bytes(cell.forward(x), ref.forward(x))
    _assert_same_bytes(cell.backward(grad_out), ref.backward(grad_out))
    for got_grad, want_grad in zip(_grads(cell), _grads(ref)):
        _assert_same_bytes(got_grad, want_grad)


@pytest.mark.parametrize("batch", [32, 256])
def test_two_layer_lstm_bytes_match_reference_at_bench_shape(rng, batch):
    lstm = nn.LSTM(12, 64, num_layers=2, rng=np.random.default_rng(3))
    ref = as_reference(copy.deepcopy(lstm))
    head, ref_head = nn.LastTimestep(), nn.LastTimestep()
    x = rng.normal(size=(batch, 22, 12))
    grad_feat = rng.normal(size=(batch, 64))
    _assert_same_bytes(head.forward(lstm.forward(x)), ref_head.forward(ref.forward(x)))
    got = lstm.backward(head.backward(grad_feat))
    _assert_same_bytes(got, ref.backward(ref_head.backward(grad_feat)))
    for got_grad, want_grad in zip(_grads(lstm), _grads(ref)):
        _assert_same_bytes(got_grad, want_grad)


def test_lstm_classifier_rmsprop_steps_match_reference(rng):
    """E local steps the way the Sent140 workload runs them: one model,
    one scratch reused across the steps, RMSProp, no input gradient."""
    data = ArrayDataset(rng.integers(0, 40, size=(48, 11)), rng.integers(0, 2, 48))
    config = FLConfig(rounds=1, local_steps=5, batch_size=8, optimizer="rmsprop", lr=0.01)
    model = build_lstm_classifier(40, 2, np.random.default_rng(3), scale=0.1)
    ref = as_reference(build_lstm_classifier(40, 2, np.random.default_rng(3), scale=0.1))
    results = [local_sgd_steps(m, data, config, np.random.default_rng(9)) for m in (model, ref)]
    assert results[0] == results[1]
    for p, q in zip(model.parameters(), ref.parameters()):
        _assert_same_bytes(p.data, q.data)
        _assert_same_bytes(p.grad, q.grad)


# -- float32: the bytes of the parent implementation -----------------------------


def _lstm_per_step_oracle(cell, x, grad_out):
    """``ReferenceLSTMCell`` transliterated to follow the input dtype.

    The frozen reference upcasts to float64, so it cannot gate float32.
    This per-timestep form was checked against the pre-rewrite
    ``LSTMCell`` on float32 inputs at every shape below (equal bytes for
    the output, ``grad_x`` and all three parameter gradients) before the
    time-major rewrite landed; the rewrite has to keep matching it.
    """
    one = x.dtype.type(1)
    batch, steps, _ = x.shape
    hid = cell.hidden_dim
    w_x, w_h, bias = cell.w_x.data, cell.w_h.data, cell.bias.data

    def logistic(z):
        return sigmoid_reference(z).astype(z.dtype)

    h = c = np.zeros((batch, hid), x.dtype)
    hs, state = np.zeros((batch, steps, hid), x.dtype), []
    for t in range(steps):
        z = x[:, t] @ w_x + h @ w_h + bias
        gi, gf = logistic(z[:, :hid]), logistic(z[:, hid : 2 * hid])
        gg, go = np.tanh(z[:, 2 * hid : 3 * hid]), logistic(z[:, 3 * hid :])
        c_prev, h_prev = c, h
        c = gf * c + gi * gg
        h = hs[:, t] = go * np.tanh(c)
        state.append((gi, gf, gg, go, c, c_prev, h_prev))
    grads = [np.zeros_like(w_x), np.zeros_like(w_h), np.zeros_like(bias)]
    grad_x = np.zeros_like(x)
    dh_next = dc_next = np.zeros((batch, hid), x.dtype)
    for t in reversed(range(steps)):
        gi, gf, gg, go, c, c_prev, h_prev = state[t]
        dh = grad_out[:, t] + dh_next
        tanh_c = np.tanh(c)
        dc = dh * go * (one - tanh_c**2) + dc_next
        dz = np.concatenate(
            [
                dc * gg * gi * (one - gi),
                dc * c_prev * gf * (one - gf),
                dc * gi * (one - gg**2),
                dh * tanh_c * go * (one - go),
            ],
            axis=1,
        )
        grads[0] += x[:, t].T @ dz
        grads[1] += h_prev.T @ dz
        grads[2] += dz.sum(axis=0)
        grad_x[:, t] = dz @ w_x.T
        dh_next = dz @ w_h.T
        dc_next = dc * gf
    return hs, grad_x, grads


@pytest.mark.parametrize("shape", ["bench-train-bottom", "bench-train-top", "batch-1", "steps-1"])
def test_lstm_cell_float32_bytes_unchanged(rng, shape):
    batch, steps, in_dim, hid = CELL_SHAPES[shape]
    with nn.default_dtype("float32"):
        cell = LSTMCell(in_dim, hid, rng=np.random.default_rng(1))
    x = rng.normal(size=(batch, steps, in_dim)).astype(np.float32)
    grad_out = rng.normal(size=(batch, steps, hid)).astype(np.float32)
    want_out, want_grad_x, want_grads = _lstm_per_step_oracle(cell, x, grad_out)
    _assert_same_bytes(cell.forward(x), want_out)
    _assert_same_bytes(cell.backward(grad_out), want_grad_x)
    for got_grad, want_grad in zip(_grads(cell), want_grads):
        _assert_same_bytes(got_grad, want_grad)


# -- workspace and mode safety ---------------------------------------------------


@pytest.mark.parametrize("cell_cls", CELLS)
def test_returned_arrays_are_not_rewritten_by_the_next_call(rng, cell_cls):
    cell = cell_cls(4, 6, rng=np.random.default_rng(2))
    x1, x2 = rng.normal(size=(2, 3, 5, 4))
    g1, g2 = rng.normal(size=(2, 3, 5, 6))
    out = cell.forward(x1)
    grad_x = cell.backward(g1)
    kept_out, kept_grad_x = out.copy(), grad_x.copy()
    cell.forward(x2)
    cell.backward(g2)
    np.testing.assert_array_equal(out, kept_out)
    np.testing.assert_array_equal(grad_x, kept_grad_x)


@pytest.mark.parametrize("cell_cls", CELLS)
def test_scratch_is_reused_for_one_shape_and_rebuilt_for_another(rng, cell_cls):
    cell, ref = _twins(cell_cls, 4, 6)

    def step(x):
        """One forward/backward on both twins; the cell's scratch after it."""
        grad_out = rng.normal(size=(*x.shape[:2], 6)).astype(x.dtype)
        for m in (cell, ref):
            m.zero_grad()
        _assert_same_bytes(cell.forward(x), ref.forward(x))
        _assert_same_bytes(cell.backward(grad_out), ref.backward(grad_out))
        for got_grad, want_grad in zip(_grads(cell), _grads(ref)):
            _assert_same_bytes(got_grad, want_grad)
        return cell._scratch

    first = step(rng.normal(size=(3, 5, 4)))
    assert step(rng.normal(size=(3, 5, 4))) is first  # same shape: reused
    batch = step(rng.normal(size=(2, 5, 4)))
    assert batch is not first
    steps = step(rng.normal(size=(2, 7, 4)))
    assert steps is not batch
    back = step(rng.normal(size=(3, 5, 4)))
    assert back is not steps  # one scratch a cell, not one a shape
    # A wider input (a fresh weight matrix to take it) is a new key too.
    for m in (cell, ref):
        m.w_x = nn.Parameter(np.random.default_rng(8).normal(size=(9, m.w_x.shape[1])))
    assert step(rng.normal(size=(3, 5, 9))) is not back


@pytest.mark.parametrize("cell_cls", CELLS)
def test_scratch_follows_the_dtype(rng, cell_cls):
    with nn.default_dtype("float32"):
        cell = cell_cls(4, 6, rng=np.random.default_rng(2))
    x = rng.normal(size=(3, 5, 4))
    assert cell.forward(x.astype(np.float32)).dtype == np.float32
    narrow = cell._scratch
    assert all(v.dtype == np.float32 for k, v in vars(narrow).items() if k != "key")
    assert cell.forward(x).dtype == np.float64  # float64 input promotes the layer
    assert cell._scratch is not narrow
    assert cell.backward(np.ones((3, 5, 6))).dtype == np.float64


@pytest.mark.parametrize("cell_cls", CELLS)
def test_free_buffers_drops_cache_and_scratch(rng, cell_cls):
    cell = cell_cls(4, 6, rng=np.random.default_rng(2))
    cell.forward(rng.normal(size=(3, 5, 4)))
    assert cell._cache is not None and cell._scratch is not None
    cell.free_buffers()
    assert cell._cache is None and cell._scratch is None
    with pytest.raises(RuntimeError, match="backward called before forward"):
        cell.backward(np.ones((3, 5, 6)))


@pytest.mark.parametrize("cell_cls", CELLS)
def test_backward_uses_the_latest_forward(rng, cell_cls):
    cell, ref = _twins(cell_cls, 4, 6)
    x1, x2 = rng.normal(size=(2, 3, 5, 4))
    grad_out = rng.normal(size=(3, 5, 6))
    cell.forward(x1)
    cell.forward(x2)
    ref.forward(x2)
    _assert_same_bytes(cell.backward(grad_out), ref.backward(grad_out))
    for got_grad, want_grad in zip(_grads(cell), _grads(ref)):
        _assert_same_bytes(got_grad, want_grad)


@pytest.mark.parametrize("cell_cls", CELLS)
def test_eval_forward_is_stateless(rng, cell_cls):
    cell, ref = _twins(cell_cls, 4, 6)
    x_eval = rng.normal(size=(7, 5, 4))
    # On a fresh cell a forward-only pass leaves nothing at all behind.
    _assert_same_bytes(cell.eval().forward(x_eval), ref.forward(x_eval))
    assert cell._cache is None and cell._scratch is None
    with pytest.raises(RuntimeError, match="backward called before forward"):
        cell.backward(np.ones((7, 5, 6)))
    # train -> eval -> train: the eval pass voids the pending backward
    # and does not touch the training scratch.
    x = rng.normal(size=(3, 5, 4))
    grad_out = rng.normal(size=(3, 5, 6))
    cell.train().forward(x)
    kept = cell._scratch
    cell.eval().forward(x_eval)
    assert cell._scratch is kept
    with pytest.raises(RuntimeError, match="backward called before forward"):
        cell.backward(grad_out)
    ref.zero_grad()
    _assert_same_bytes(cell.train().forward(x), ref.forward(x))
    assert cell._scratch is kept
    _assert_same_bytes(cell.backward(grad_out), ref.backward(grad_out))
    for got_grad, want_grad in zip(_grads(cell), _grads(ref)):
        _assert_same_bytes(got_grad, want_grad)


@pytest.mark.parametrize("cell_cls", CELLS)
def test_empty_sequence_is_rejected_by_shape(cell_cls):
    cell = cell_cls(3, 4, rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match=r"empty sequence.*\(2, 0, 3\)"):
        cell.forward(np.zeros((2, 0, 3)))
