"""Bit-for-bit equivalence of the optimized kernels vs the frozen references.

The kernel rewrites (table-driven im2col into a reused workspace,
strided-position max pooling, parameter-only backward at the first
layer, hoisted recurrent input projections, fused gate blocks,
branchless sigmoid, preallocated GEMM destinations) ship under one
contract: in float64 they produce **the
same bits** as the original implementations, which are frozen verbatim
in :mod:`repro.nn.reference`.  ``np.array_equal`` throughout — no
tolerances.
"""

import copy

import numpy as np
import pytest

from repro import nn
from repro.data.dataset import ArrayDataset
from repro.fl.client import local_sgd_steps
from repro.fl.config import FLConfig
from repro.models import (
    build_cnn,
    build_logistic,
    build_lstm_classifier,
    build_mlp,
)
from repro.models.split import SplitModel
from repro.nn.activations import sigmoid
from repro.nn.conv import Conv2d, col2im, im2col
from repro.nn.recurrent import LSTMCell
from repro.nn.reference import (
    as_reference,
    col2im_reference,
    im2col_reference,
    sigmoid_reference,
)


def _params_equal(a, b):
    return all(
        np.array_equal(p.data, q.data) and np.array_equal(p.grad, q.grad)
        for p, q in zip(a.parameters(), b.parameters())
    )


# -- sigmoid --------------------------------------------------------------------


def test_branchless_sigmoid_matches_two_branch_reference(rng):
    for scale in (0.1, 1.0, 5.0, 50.0, 700.0):
        x = rng.normal(size=4096) * scale
        np.testing.assert_array_equal(sigmoid(x), sigmoid_reference(x))


def test_branchless_sigmoid_edge_values():
    x = np.array([0.0, -0.0, 1e-300, -1e-300, 709.0, -709.0, np.inf, -np.inf])
    np.testing.assert_array_equal(sigmoid(x), sigmoid_reference(x))


def test_sigmoid_out_strided_destination(rng):
    """Writing into a strided slice gives the same values as allocating."""
    x = rng.normal(size=(6, 10))
    buf = np.empty((6, 40))
    result = sigmoid(x, out=buf[:, 7:17])
    np.testing.assert_array_equal(result, sigmoid_reference(x))
    assert result.base is buf


# -- im2col / col2im ------------------------------------------------------------

CONV_SHAPES = [
    # (batch, channels, height, width, kernel, stride, padding)
    (2, 3, 8, 8, 3, 1, 1),
    (1, 1, 5, 7, 3, 2, 0),
    (3, 2, 9, 9, 4, 3, 2),
    (2, 4, 6, 6, 1, 1, 0),
    (1, 2, 11, 5, 5, 2, 2),
]


@pytest.mark.parametrize("shape", CONV_SHAPES)
def test_im2col_matches_reference(rng, shape):
    b, c, h, w, k, s, p = shape
    x = rng.normal(size=(b, c, h, w))
    cols, oh, ow = im2col(x, k, s, p)
    ref_cols, ref_oh, ref_ow = im2col_reference(x, k, s, p)
    assert (oh, ow) == (ref_oh, ref_ow)
    np.testing.assert_array_equal(cols, ref_cols)


@pytest.mark.parametrize("shape", CONV_SHAPES)
def test_col2im_matches_reference(rng, shape):
    b, c, h, w, k, s, p = shape
    x_shape = (b, c, h, w)
    oh = (h + 2 * p - k) // s + 1
    ow = (w + 2 * p - k) // s + 1
    cols = rng.normal(size=(b * oh * ow, c * k * k))
    np.testing.assert_array_equal(
        col2im(cols, x_shape, k, s, p, oh, ow),
        col2im_reference(cols, x_shape, k, s, p, oh, ow),
    )


# -- layer-level fwd/bwd/grads --------------------------------------------------


def test_conv2d_matches_reference_bitwise(rng):
    conv = Conv2d(3, 5, 3, stride=2, padding=1, rng=np.random.default_rng(11))
    ref = as_reference(copy.deepcopy(conv))
    x = rng.normal(size=(4, 3, 9, 9))
    out, ref_out = conv.forward(x), ref.forward(x)
    np.testing.assert_array_equal(out, ref_out)
    grad_out = rng.normal(size=out.shape)
    np.testing.assert_array_equal(conv.backward(grad_out), ref.backward(grad_out))
    assert _params_equal(conv, ref)


@pytest.mark.parametrize(
    "cell_cls,dims",
    [
        (LSTMCell, (13, 16, 4, 7)),
        (LSTMCell, (25, 32, 9, 12)),
    ],
    ids=["lstm-small", "lstm-wide"],
)
def test_recurrent_cell_matches_reference_bitwise(rng, cell_cls, dims):
    in_dim, hid, batch, steps = dims
    cell = cell_cls(in_dim, hid, rng=np.random.default_rng(5))
    ref = as_reference(copy.deepcopy(cell))
    x = rng.normal(size=(batch, steps, in_dim))
    np.testing.assert_array_equal(cell.forward(x), ref.forward(x))
    grad_out = rng.normal(size=(batch, steps, hid))
    np.testing.assert_array_equal(cell.backward(grad_out), ref.backward(grad_out))
    assert _params_equal(cell, ref)


def test_backward_twice_accumulates_identically(rng):
    """Preallocated gradient workspaces must not leak state between calls."""
    cell = LSTMCell(6, 8, rng=np.random.default_rng(2))
    ref = as_reference(copy.deepcopy(cell))
    x = rng.normal(size=(3, 5, 6))
    grad_out = rng.normal(size=(3, 5, 8))
    for model in (cell, ref):
        model.forward(x)
        model.backward(grad_out)
        model.forward(x)
        model.backward(grad_out)
    assert _params_equal(cell, ref)


def test_full_model_train_flow_bitwise(rng):
    """A CNN forward/backward chain end to end, optimized vs reference."""
    def build():
        r = np.random.default_rng(3)
        return nn.Sequential(
            nn.Conv2d(1, 4, 3, padding=1, rng=r), nn.ReLU(), nn.MaxPool2d(2),
            nn.Flatten(), nn.Linear(4 * 4 * 4, 3, rng=r),
        )

    model = build()
    ref = as_reference(build())
    x = rng.normal(size=(5, 1, 8, 8))
    y = rng.integers(0, 3, 5)
    loss = nn.SoftmaxCrossEntropy()
    for m in (model, ref):
        m.zero_grad()
        loss.forward(m(x), y)
        m.backward(loss.backward())
    assert _params_equal(model, ref)

    # The same chain the way a client runs it: E optimizer steps through
    # local_sgd_steps, which skips the input gradient at the first layer.
    data = ArrayDataset(rng.normal(size=(40, 1, 8, 8)), rng.integers(0, 3, 40))
    config = FLConfig(rounds=1, local_steps=4, batch_size=8, lr=0.1)
    trained = build_cnn(1, 8, 3, np.random.default_rng(3), scale=0.25)
    trained_ref = as_reference(build_cnn(1, 8, 3, np.random.default_rng(3), scale=0.25))
    for m in (trained, trained_ref):
        local_sgd_steps(m, data, config, np.random.default_rng(9))
    assert _params_equal(trained, trained_ref)


# -- parameter-only backward at the first layer ---------------------------------



def _images(side, channels):
    return lambda r: r.normal(size=(6, channels, side, side))


def _tokens(r):
    return r.integers(0, 30, size=(6, 7))


def _bare_linear(r):
    """A Linear as the very first layer (no Flatten, no bias): its own
    parameter-only backward is what ``input_grad=False`` runs."""
    features = nn.Sequential(nn.Linear(12, 8, rng=r, bias=False), nn.Tanh())
    return SplitModel(features, nn.Linear(8, 4, rng=r), feature_dim=8)


def _bench_tokens(r):
    """A batch at the Sent140 bench cell's train shape: B=32, T=22."""
    return r.integers(0, 400, size=(32, 22))


# name -> (model builder, batch builder); the CNN picks K=5 at 16x16, K=3 at 8x8.
# "lstm-bench" is the Sent140 bench cell's model (E=12, H=64, two layers).
ZOO = {
    "cnn-k5": (lambda r: build_cnn(3, 16, 4, r, scale=0.25), _images(16, 3)),
    "cnn-k3": (lambda r: build_cnn(1, 8, 4, r, scale=0.25), _images(8, 1)),
    "mlp": (lambda r: build_mlp(48, 4, r, (16,), feature_dim=8), _images(4, 3)),
    "logistic": (lambda r: build_logistic(48, 4, r), _images(4, 3)),
    "linear": (_bare_linear, lambda r: r.normal(size=(6, 12))),
    "lstm": (lambda r: build_lstm_classifier(30, 4, r, scale=0.1), _tokens),
    "lstm-bench": (lambda r: build_lstm_classifier(400, 4, r, scale=0.25), _bench_tokens),
}


@pytest.mark.parametrize("name", sorted(ZOO))
def test_param_only_backward_leaves_identical_gradients(rng, name):
    """input_grad=False changes which arrays are computed, never a bit of
    a parameter gradient: equal to the full backward and to the reference."""
    build, make_x = ZOO[name]
    x = make_x(rng)
    y = rng.integers(0, 4, len(x))
    feature_grad = rng.normal(size=(len(x), build(np.random.default_rng(4)).feature_dim))
    loss = nn.SoftmaxCrossEntropy()

    def grads(model, input_grad):
        model.zero_grad()
        loss.forward(model.forward(x), y)
        returned = model.backward(
            loss.backward(), feature_grad=feature_grad, input_grad=input_grad
        )
        assert (returned is None) == (not input_grad)
        return [p.grad.tobytes() for p in model.parameters()]

    full = grads(build(np.random.default_rng(4)), True)
    assert any(np.frombuffer(g).any() for g in full)
    assert grads(build(np.random.default_rng(4)), False) == full
    assert grads(as_reference(build(np.random.default_rng(4))), False) == full
    assert grads(as_reference(build(np.random.default_rng(4))), True) == full


def test_sequential_backward_params_skips_leading_parameter_free_layers(rng):
    calls = []

    class Probe(nn.Module):
        def forward(self, x):
            return x

        def backward(self, grad_out):
            calls.append("probe")
            return grad_out

    linear = nn.Linear(6, 3, rng=np.random.default_rng(0))
    model = nn.Sequential(Probe(), nn.Flatten(), linear, nn.ReLU(), Probe())
    out = model.forward(rng.normal(size=(4, 2, 3)))
    model.backward_params(np.ones_like(out))
    assert calls == ["probe"]  # only the one after the first parametrised layer
    assert linear.weight.grad.any()
    # A chain without parameters has nothing to accumulate.
    nn.Sequential(Probe(), Probe()).backward_params(np.ones(3))
    assert calls == ["probe"]


# -- blockwise MMD --------------------------------------------------------------


def test_pairwise_sq_dists_blockwise_matches_dense(rng):
    from repro.core.mmd import _pairwise_sq_dists

    a = rng.normal(size=(37, 8))
    b = rng.normal(size=(23, 8))
    dense = _pairwise_sq_dists(a, b)
    for block_rows in (1, 5, 16, 64):
        np.testing.assert_allclose(
            _pairwise_sq_dists(a, b, block_rows=block_rows), dense,
            rtol=0, atol=1e-12,
        )


def test_pairwise_sq_dists_single_block_is_dense_path(rng):
    """A block covering all rows goes through the identical dense GEMM."""
    from repro.core.mmd import _pairwise_sq_dists

    a = rng.normal(size=(19, 4))
    b = rng.normal(size=(11, 4))
    np.testing.assert_array_equal(
        _pairwise_sq_dists(a, b, block_rows=19), _pairwise_sq_dists(a, b)
    )


def test_rbf_mmd_value_unchanged_by_blocking(rng):
    from repro.core import mmd

    a = rng.normal(size=(40, 6))
    b = rng.normal(size=(30, 6))
    dense = mmd.rbf_mmd(a, b)
    old = mmd._BLOCK_ELEMENTS
    try:
        mmd._BLOCK_ELEMENTS = 64  # force the blocked path
        blocked = mmd.rbf_mmd(a, b)
    finally:
        mmd._BLOCK_ELEMENTS = old
    np.testing.assert_allclose(blocked, dense, rtol=0, atol=1e-12)
