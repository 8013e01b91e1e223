"""Pooling layer tests."""

import numpy as np
import pytest

from repro import nn
from tests.helpers import model_gradcheck
from repro.nn.losses import MeanSquaredError
from repro.nn.reference import ReferenceMaxPool2d, as_reference


def test_maxpool_forward_values():
    x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
    out = nn.MaxPool2d(2)(x)
    np.testing.assert_array_equal(out[0, 0], [[5, 7], [13, 15]])


def test_maxpool_backward_routes_to_max():
    x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
    layer = nn.MaxPool2d(2)
    layer(x)
    grad = layer.backward(np.array([[[[10.0]]]]))
    np.testing.assert_array_equal(grad[0, 0], [[0, 0], [0, 10]])


def test_maxpool_tie_splits_gradient():
    x = np.ones((1, 1, 2, 2))
    layer = nn.MaxPool2d(2)
    layer(x)
    grad = layer.backward(np.array([[[[8.0]]]]))
    np.testing.assert_array_equal(grad[0, 0], [[2, 2], [2, 2]])


@pytest.mark.parametrize("cls", [nn.MaxPool2d])
def test_indivisible_dims_raise(cls):
    with pytest.raises(ValueError):
        cls(2)(np.zeros((1, 1, 5, 4)))


@pytest.mark.parametrize("cls", [nn.MaxPool2d])
def test_backward_before_forward_raises(cls):
    with pytest.raises(RuntimeError):
        cls(2).backward(np.zeros((1, 1, 2, 2)))


@pytest.mark.parametrize("cls", [nn.MaxPool2d])
def test_gradcheck_pooling(rng, cls):
    model = nn.Sequential(
        nn.Conv2d(1, 2, 3, padding=1, rng=rng), cls(2), nn.Flatten(),
        nn.Linear(2 * 3 * 3, 2, rng=rng),
    )
    x = rng.normal(size=(3, 1, 6, 6))
    target = rng.normal(size=(3, 2))
    loss_fn = MeanSquaredError()

    def closure():
        loss = loss_fn.forward(model(x), target)
        return loss, loss_fn.backward()

    model_gradcheck(model, closure, rng, num_coords=8)


# -- bit-identity with the frozen reference --------------------------------------


def _conv_layout(values):
    """The memory layout a Conv2d output has: an NHWC buffer viewed as NCHW."""
    return np.ascontiguousarray(values.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def _pool_inputs(rng, pool_size, dtype):
    shape = (3, 5, 4 * pool_size, 2 * pool_size)
    special = np.array([0.0, -0.0, np.inf, -np.inf, 1.0, -1.0], dtype=dtype)
    return {
        "normal": rng.normal(size=shape).astype(dtype),
        "ties": rng.integers(0, 3, size=shape).astype(dtype),
        "all-equal": np.full(shape, 2.5, dtype=dtype),
        "signed-zeros": rng.choice(special[:2], size=shape),
        "zeros-and-negatives": rng.choice(np.array([0.0, -0.0, -1.0], dtype=dtype), size=shape),
        "infinities": rng.choice(special, size=shape),
    }


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("layout", ["contiguous", "conv-output", "sliced"])
@pytest.mark.parametrize("pool_size", [2, 3])
def test_maxpool_matches_reference_bitwise(rng, pool_size, layout, dtype):
    for name, values in _pool_inputs(rng, pool_size, dtype).items():
        if layout == "conv-output":
            x = _conv_layout(values)
            assert not x.flags["C_CONTIGUOUS"]
        elif layout == "sliced":
            x = np.pad(values, ((0, 0), (0, 0), (1, 0), (2, 1)))[:, :, 1:, 2:-1]
        else:
            x = values
        layer, ref = nn.MaxPool2d(pool_size), as_reference(nn.MaxPool2d(pool_size))
        assert type(ref) is ReferenceMaxPool2d
        with np.errstate(invalid="ignore"):
            out, ref_out = layer.forward(x), ref.forward(x)
        assert out.dtype == ref_out.dtype == dtype, name
        assert out.tobytes() == ref_out.tobytes(), name
        grad_out = rng.normal(size=out.shape).astype(dtype)
        grad_out[0, 0, 0, 0] = -0.0
        with np.errstate(invalid="ignore"):
            grad, ref_grad = layer.backward(grad_out), ref.backward(grad_out)
        assert grad.shape == ref_grad.shape and grad.dtype == ref_grad.dtype, name
        assert grad.tobytes() == ref_grad.tobytes(), name


def test_maxpool_float64_gradient_on_float32_mask_promotes_like_reference(rng):
    x = rng.normal(size=(2, 2, 4, 4)).astype(np.float32)
    layer, ref = nn.MaxPool2d(2), as_reference(nn.MaxPool2d(2))
    layer.forward(x), ref.forward(x)
    grad_out = rng.normal(size=(2, 2, 2, 2))
    grad, ref_grad = layer.backward(grad_out), ref.backward(grad_out)
    assert grad.dtype == ref_grad.dtype == np.float64
    assert grad.tobytes() == ref_grad.tobytes()


# -- forward-only (eval-mode) passes ---------------------------------------------


def test_maxpool_eval_forward_is_bitwise_train_forward_and_keeps_no_state(rng):
    x = _conv_layout(rng.normal(size=(4, 3, 6, 6)))
    layer = nn.MaxPool2d(2)
    trained = layer.forward(x)
    layer.eval()
    assert layer.forward(x).tobytes() == trained.tobytes()
    assert layer._weights is None
    with pytest.raises(RuntimeError, match="backward called before forward"):
        layer.backward(np.ones_like(trained))
    # train -> eval -> train: the next training-mode forward rebuilds the state.
    layer.train()
    layer.forward(x)
    ref = as_reference(nn.MaxPool2d(2))
    ref.forward(x)
    grad_out = rng.normal(size=trained.shape)
    assert layer.backward(grad_out).tobytes() == ref.backward(grad_out).tobytes()
