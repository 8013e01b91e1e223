"""Activation layer tests."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro import nn
from repro.nn.activations import sigmoid


def test_relu_values():
    x = np.array([[-1.0, 0.0, 2.0]])
    np.testing.assert_array_equal(nn.ReLU()(x), [[0.0, 0.0, 2.0]])


def test_relu_gradient_mask():
    layer = nn.ReLU()
    layer(np.array([[-1.0, 3.0]]))
    grad = layer.backward(np.array([[5.0, 5.0]]))
    np.testing.assert_array_equal(grad, [[0.0, 5.0]])


def test_leaky_relu_negative_slope():
    layer = nn.LeakyReLU(alpha=0.1)
    out = layer(np.array([[-2.0, 2.0]]))
    np.testing.assert_allclose(out, [[-0.2, 2.0]])
    grad = layer.backward(np.array([[1.0, 1.0]]))
    np.testing.assert_allclose(grad, [[0.1, 1.0]])


def test_tanh_matches_numpy(rng):
    x = rng.normal(size=(3, 4))
    np.testing.assert_allclose(nn.Tanh()(x), np.tanh(x))


def test_tanh_gradient():
    layer = nn.Tanh()
    x = np.array([[0.5]])
    layer(x)
    grad = layer.backward(np.array([[1.0]]))
    np.testing.assert_allclose(grad, 1 - np.tanh(x) ** 2)


def test_sigmoid_layer_gradient():
    layer = nn.Sigmoid()
    x = np.array([[0.3]])
    out = layer(x)
    grad = layer.backward(np.array([[1.0]]))
    np.testing.assert_allclose(grad, out * (1 - out))


@given(st.floats(min_value=-500, max_value=500))
def test_sigmoid_stable_and_bounded(value):
    out = sigmoid(np.array([value]))
    assert np.isfinite(out).all()
    assert 0.0 <= out[0] <= 1.0


def test_sigmoid_extremes_no_overflow():
    out = sigmoid(np.array([-1000.0, 1000.0]))
    np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-12)


@pytest.mark.parametrize("cls", [nn.ReLU, nn.Tanh, nn.Sigmoid, nn.LeakyReLU])
def test_backward_before_forward_raises(cls):
    with pytest.raises(RuntimeError):
        cls().backward(np.ones((1, 1)))


@pytest.mark.parametrize("cls", [nn.ReLU, nn.Tanh, nn.Sigmoid, nn.LeakyReLU])
def test_eval_forward_keeps_no_backward_state(rng, cls):
    """A forward-only pass builds nothing for backward (the rule Conv2d,
    MaxPool2d and the recurrent cells obey), and values ignore the mode."""
    layer = cls()
    x = rng.normal(size=(4, 6))
    trained = layer.forward(x)
    layer.backward(np.ones_like(x))  # a training-mode forward feeds backward
    layer.eval()
    evaluated = layer.forward(x)
    assert evaluated.tobytes() == trained.tobytes()
    assert not [name for name, value in vars(layer).items() if isinstance(value, np.ndarray)]
    with pytest.raises(RuntimeError, match="backward called before forward"):
        layer.backward(np.ones_like(x))
    layer.train()
    layer.forward(x)
    layer.backward(np.ones_like(x))
