"""Conv2d and im2col tests."""

import numpy as np
import pytest

from repro import nn
from repro.nn.conv import col2im, im2col
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.reference import as_reference
from tests.helpers import model_gradcheck


def _naive_conv(x, weight, bias, stride, padding):
    """Reference direct convolution for correctness comparison."""
    batch, _cin, h, w = x.shape
    cout, cin, k, _ = weight.shape
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - k) // stride + 1
    ow = (w + 2 * padding - k) // stride + 1
    out = np.zeros((batch, cout, oh, ow))
    for b in range(batch):
        for o in range(cout):
            for i in range(oh):
                for j in range(ow):
                    patch = x[b, :, i * stride : i * stride + k, j * stride : j * stride + k]
                    out[b, o, i, j] = (patch * weight[o]).sum() + bias[o]
    return out


@pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1)])
def test_forward_matches_naive(rng, stride, padding):
    layer = nn.Conv2d(2, 3, kernel_size=3, stride=stride, padding=padding, rng=rng)
    x = rng.normal(size=(2, 2, 7, 7))
    out = layer(x)
    expected = _naive_conv(x, layer.weight.data, layer.bias.data, stride, padding)
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_output_shape(rng):
    layer = nn.Conv2d(1, 4, kernel_size=5, padding=2, rng=rng)
    out = layer(rng.normal(size=(3, 1, 12, 12)))
    assert out.shape == (3, 4, 12, 12)


def test_im2col_col2im_adjointness(rng):
    """col2im is the transpose of im2col: <im2col(x), c> == <x, col2im(c)>."""
    x = rng.normal(size=(2, 3, 6, 6))
    cols, oh, ow = im2col(x, kernel=3, stride=1, padding=1)
    c = rng.normal(size=cols.shape)
    lhs = float((cols * c).sum())
    back = col2im(c, x.shape, kernel=3, stride=1, padding=1, out_h=oh, out_w=ow)
    rhs = float((x * back).sum())
    assert abs(lhs - rhs) < 1e-9


def test_gradcheck_small_cnn(rng):
    model = nn.Sequential(
        nn.Conv2d(1, 3, 3, padding=1, rng=rng),
        nn.ReLU(),
        nn.MaxPool2d(2),
        nn.Flatten(),
        nn.Linear(3 * 4 * 4, 5, rng=rng),
    )
    x = rng.normal(size=(4, 1, 8, 8))
    y = rng.integers(0, 5, 4)
    loss_fn = SoftmaxCrossEntropy()

    def closure():
        loss = loss_fn.forward(model(x), y)
        return loss, loss_fn.backward()

    model_gradcheck(model, closure, rng, num_coords=12)


def test_backward_before_forward_raises(rng):
    layer = nn.Conv2d(1, 1, 3, rng=rng)
    with pytest.raises(RuntimeError):
        layer.backward(np.zeros((1, 1, 3, 3)))


def test_grad_accumulates_across_batches(rng):
    layer = nn.Conv2d(1, 2, 3, padding=1, rng=rng)
    x = rng.normal(size=(2, 1, 6, 6))
    out = layer(x)
    layer.backward(np.ones_like(out))
    first = layer.weight.grad.copy()
    layer(x)
    layer.backward(np.ones_like(out))
    np.testing.assert_allclose(layer.weight.grad, 2 * first)


# -- forward-only (eval-mode) passes ---------------------------------------------


def test_eval_forward_is_bitwise_train_forward_and_keeps_no_backward_state(rng):
    layer = nn.Conv2d(2, 3, 3, padding=1, rng=np.random.default_rng(0))
    x = rng.normal(size=(3, 2, 6, 6))
    trained = layer.forward(x)
    layer.eval()
    assert layer.forward(x).tobytes() == trained.tobytes()
    assert layer._cols is None
    for backward in (layer.backward, layer.backward_params):
        with pytest.raises(RuntimeError, match="backward called before forward"):
            backward(np.ones_like(trained))


def test_train_eval_train_still_trains(rng):
    """A forward-only pass between two steps does not disturb training."""
    def build():
        r = np.random.default_rng(1)
        return nn.Sequential(
            nn.Conv2d(1, 3, 3, padding=1, rng=r), nn.ReLU(), nn.MaxPool2d(2),
            nn.Flatten(), nn.Linear(3 * 3 * 3, 2, rng=r),
        )

    x = rng.normal(size=(4, 1, 6, 6))
    x_eval = rng.normal(size=(7, 1, 6, 6))
    grad_out = rng.normal(size=(4, 2))
    interrupted, plain = build(), as_reference(build())
    for model in (interrupted, plain):
        model.forward(x)
        model.backward(grad_out)
    interrupted.eval()
    interrupted.forward(x_eval)
    interrupted.train()
    for model in (interrupted, plain):
        model.forward(x)
        model.backward(grad_out)
    for p, q in zip(interrupted.parameters(), plain.parameters()):
        assert p.grad.any()
        assert p.grad.tobytes() == q.grad.tobytes()


# -- the reused im2col workspace -------------------------------------------------


def test_forward_output_is_not_mutated_by_the_next_call(rng):
    layer = nn.Conv2d(2, 3, 3, padding=1, rng=np.random.default_rng(0))
    x1, x2 = rng.normal(size=(2, 3, 2, 5, 5))
    out1 = layer.forward(x1)
    snapshot = out1.copy()
    cols1 = layer._cols
    out2 = layer.forward(x2)
    assert layer._cols is cols1  # the scratch is reused ...
    assert not np.shares_memory(out1, out2)  # ... the outputs are not
    np.testing.assert_array_equal(out1, snapshot)
    assert not np.shares_memory(out2, layer._cols)
    # The public im2col hands out fresh arrays too.
    a, _, _ = im2col(x1, 3, 1, 1)
    b, _, _ = im2col(x2, 3, 1, 1)
    assert not np.shares_memory(a, b)


@pytest.mark.parametrize("padding", [0, 2])
def test_batch_size_and_dtype_changes_between_calls(rng, padding):
    layer = nn.Conv2d(2, 3, 3, stride=2, padding=padding, rng=np.random.default_rng(0))
    ref = as_reference(nn.Conv2d(2, 3, 3, stride=2, padding=padding, rng=np.random.default_rng(0)))
    # Not batch 1: there the frozen reference's cols is a transposed view,
    # which BLAS multiplies in another order (true at every commit).
    for batch, dtype in [(4, np.float64), (2, np.float64), (6, np.float64), (6, np.float32)]:
        x = rng.normal(size=(batch, 2, 7, 7)).astype(dtype)
        out, ref_out = layer.forward(x), ref.forward(x)
        assert out.tobytes() == ref_out.tobytes()
        grad_out = rng.normal(size=out.shape)
        assert layer.backward(grad_out).tobytes() == ref.backward(grad_out).tobytes()
    for p, q in zip(layer.parameters(), ref.parameters()):
        assert p.grad.tobytes() == q.grad.tobytes()


def test_padded_scratch_border_stays_zero_across_calls(rng):
    layer = nn.Conv2d(1, 1, 3, padding=1, rng=np.random.default_rng(0))
    layer.forward(rng.normal(size=(2, 1, 4, 4)))
    x = rng.normal(size=(2, 1, 4, 4))
    reused = layer.forward(x)
    fresh = nn.Conv2d(1, 1, 3, padding=1, rng=np.random.default_rng(0)).forward(x)
    assert reused.tobytes() == fresh.tobytes()


def test_free_buffers_drops_the_scratch(rng):
    layer = nn.Conv2d(1, 2, 3, padding=1, rng=np.random.default_rng(0))
    layer.forward(rng.normal(size=(2, 1, 4, 4)))
    layer.eval()
    layer.forward(rng.normal(size=(2, 1, 4, 4)))
    # Both scratches outlive their passes, each apart from the other.
    assert layer._workspace is not None and layer._eval_workspace is not None
    assert not np.shares_memory(layer._workspace.cols, layer._eval_workspace.cols)
    layer.free_buffers()
    assert layer._workspace is None and layer._eval_workspace is None
    assert layer._cols is None


def test_backward_twice_accumulates_identically(rng):
    layer = nn.Conv2d(2, 3, 3, padding=1, rng=np.random.default_rng(0))
    ref = as_reference(nn.Conv2d(2, 3, 3, padding=1, rng=np.random.default_rng(0)))
    x = rng.normal(size=(3, 2, 5, 5))
    grad_out = rng.normal(size=(3, 3, 5, 5))
    for conv in (layer, ref):
        conv.forward(x)
        first = conv.backward(grad_out)
        second = conv.backward(grad_out)
        assert first.tobytes() == second.tobytes()
        conv.backward_params(grad_out)
    for p, q in zip(layer.parameters(), ref.parameters()):
        assert p.grad.tobytes() == q.grad.tobytes()
