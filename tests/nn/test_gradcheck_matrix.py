"""Systematic finite-difference gradcheck across the layer matrix.

Every differentiable layer is exercised inside a small network against
central finite differences — the single most important invariant of the
substrate, since a silently wrong gradient would corrupt every
experiment downstream while still "learning something".
"""

import numpy as np
import pytest

from repro import nn
from repro.nn.losses import MeanSquaredError, SoftmaxCrossEntropy
from tests.helpers import model_gradcheck


def _image_input(rng):
    return rng.normal(size=(3, 2, 8, 8))


def _vector_input(rng):
    return rng.normal(size=(5, 12))


def _sequence_input(rng):
    return rng.integers(0, 9, size=(3, 5))


LAYER_CASES = [
    pytest.param(
        lambda rng: nn.Sequential(
            nn.Conv2d(2, 3, 3, padding=1, rng=rng), nn.ReLU(), nn.MaxPool2d(2),
            nn.Flatten(), nn.Linear(3 * 4 * 4, 4, rng=rng),
        ),
        _image_input, "conv-maxpool", id="conv-maxpool",
    ),
    pytest.param(
        lambda rng: nn.Sequential(
            nn.Conv2d(2, 2, 3, stride=2, rng=rng), nn.LeakyReLU(0.1),
            nn.Flatten(), nn.Linear(2 * 3 * 3, 4, rng=rng),
        ),
        _image_input, "strided-conv", id="strided-conv",
    ),
    pytest.param(
        lambda rng: nn.Sequential(
            nn.Linear(12, 8, rng=rng), nn.Sigmoid(), nn.Linear(8, 4, rng=rng)
        ),
        _vector_input, "sigmoid-mlp", id="sigmoid-mlp",
    ),
    pytest.param(
        lambda rng: nn.Sequential(
            nn.Linear(12, 8, rng=rng), nn.Tanh(), nn.Linear(8, 4, rng=rng)
        ),
        _vector_input, "tanh-mlp", id="tanh-mlp",
    ),
    pytest.param(
        lambda rng: nn.Sequential(
            nn.Embedding(9, 4, rng=rng), nn.LSTM(4, 5, num_layers=1, rng=rng),
            nn.LastTimestep(), nn.Linear(5, 4, rng=rng),
        ),
        _sequence_input, "lstm", id="lstm",
    ),
]


@pytest.mark.parametrize("factory,input_fn,label", LAYER_CASES)
def test_cross_entropy_gradcheck(rng, factory, input_fn, label):
    model = factory(rng)
    x = input_fn(rng)
    y = rng.integers(0, 4, x.shape[0])
    loss_fn = SoftmaxCrossEntropy()

    def closure():
        loss = loss_fn.forward(model(x), y)
        return loss, loss_fn.backward()

    model_gradcheck(model, closure, rng, num_coords=10, atol=1e-4)


@pytest.mark.parametrize("factory,input_fn,label", LAYER_CASES)
def test_cross_entropy_gradcheck_float32(rng, factory, input_fn, label):
    """The same layer matrix under the float32 dtype policy.

    Finite differences in single precision need a bigger step (a 1e-6
    bump vanishes in rounding) and looser tolerances — this checks the
    float32 kernels compute the *right* gradients, not that they match
    float64 precision.
    """
    with nn.default_dtype("float32"):
        model = factory(rng)
    x = input_fn(rng)
    if np.issubdtype(np.asarray(x).dtype, np.floating):
        x = x.astype(np.float32)
    y = rng.integers(0, 4, x.shape[0])
    loss_fn = SoftmaxCrossEntropy()

    def closure():
        loss = loss_fn.forward(model(x), y)
        return loss, loss_fn.backward()

    model_gradcheck(model, closure, rng, num_coords=10, eps=1e-3, atol=5e-2)


@pytest.mark.parametrize("factory,input_fn,label", LAYER_CASES[:4])
def test_mse_gradcheck(rng, factory, input_fn, label):
    model = factory(rng)
    x = input_fn(rng)
    target = rng.normal(size=(x.shape[0], 4))
    loss_fn = MeanSquaredError()

    def closure():
        loss = loss_fn.forward(model(x), target)
        return loss, loss_fn.backward()

    model_gradcheck(model, closure, rng, num_coords=10, atol=1e-4)


def test_gradients_accumulate_across_objectives(rng):
    """Backward twice (two objective terms) sums gradients exactly."""
    model = nn.Sequential(nn.Linear(6, 4, rng=rng), nn.Tanh(), nn.Linear(4, 2, rng=rng))
    x = rng.normal(size=(4, 6))
    target = rng.normal(size=(4, 2))
    loss_fn = MeanSquaredError()

    loss_fn.forward(model(x), target)
    model.zero_grad()
    model.backward(loss_fn.backward())
    from repro.nn.serialization import get_flat_grads

    single = get_flat_grads(model)
    loss_fn.forward(model(x), target)
    model.backward(loss_fn.backward())
    np.testing.assert_allclose(get_flat_grads(model), 2 * single)


@pytest.mark.parametrize("case", range(12))
def test_im2col_col2im_adjointness_on_random_shapes(case):
    """col2im is the exact adjoint of im2col:
    <im2col(x), y> == <x, col2im(y)> for every x and y.

    This is the algebraic fact the convolution backward pass rests on;
    shapes are drawn from a seeded stdlib generator so failures replay.
    """
    import random

    from repro.nn.conv import col2im, im2col

    gen = random.Random(6000 + case)
    batch = gen.randint(1, 3)
    channels = gen.randint(1, 3)
    kernel = gen.randint(1, 4)
    stride = gen.randint(1, 3)
    padding = gen.randint(0, 2)
    # Keep the spatial extent valid for the sampled kernel/padding.
    min_side = max(1, kernel - 2 * padding)
    height = gen.randint(min_side, min_side + 5)
    width = gen.randint(min_side, min_side + 5)

    data = np.random.default_rng(7000 + case)
    x = data.normal(size=(batch, channels, height, width))
    cols, out_h, out_w = im2col(x, kernel, stride, padding)
    y = data.normal(size=cols.shape)

    lhs = float((cols * y).sum())
    back = col2im(y, x.shape, kernel, stride, padding, out_h, out_w)
    rhs = float((x * back).sum())
    assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))
