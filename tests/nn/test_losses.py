"""Loss function tests."""

import numpy as np
import pytest

from repro import nn
from tests.helpers import log_softmax, softmax


def test_cross_entropy_matches_manual(rng):
    logits = rng.normal(size=(5, 4))
    labels = rng.integers(0, 4, 5)
    loss = nn.SoftmaxCrossEntropy()
    value = loss(logits, labels)
    probs = softmax(logits)
    manual = -np.log(probs[np.arange(5), labels]).mean()
    assert abs(value - manual) < 1e-12


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("shape", [(16, 10), (1, 2), (256, 3)])
def test_cross_entropy_is_the_two_softmaxes_to_the_byte(rng, shape, dtype):
    """forward() derives max/exp/sum once; it used to call log_softmax
    and softmax, each deriving them from the same logits."""
    logits = (rng.normal(size=shape) * 30).astype(dtype)
    logits[0, 0] = 1e4  # a row that saturates
    labels = rng.integers(0, shape[1], shape[0])
    loss = nn.SoftmaxCrossEntropy()
    value = loss(logits, labels)
    logp = log_softmax(logits, axis=-1)
    assert value == float(-logp[np.arange(shape[0]), labels].mean())
    expected = softmax(logits, axis=-1)
    assert loss._probs.dtype == expected.dtype
    assert loss._probs.tobytes() == expected.tobytes()


def test_cross_entropy_gradient_matches_softmax_minus_onehot(rng):
    logits = rng.normal(size=(3, 4))
    labels = np.array([0, 1, 3])
    loss = nn.SoftmaxCrossEntropy()
    loss(logits, labels)
    grad = loss.backward()
    expected = softmax(logits)
    expected[np.arange(3), labels] -= 1.0
    np.testing.assert_allclose(grad, expected / 3.0)


def test_cross_entropy_perfect_prediction_near_zero():
    logits = np.array([[100.0, 0.0], [0.0, 100.0]])
    loss = nn.SoftmaxCrossEntropy()
    assert loss(logits, np.array([0, 1])) < 1e-10


def test_cross_entropy_stable_with_huge_logits():
    logits = np.array([[1e6, 0.0]])
    loss = nn.SoftmaxCrossEntropy()
    assert np.isfinite(loss(logits, np.array([1])))


def test_mse_value_and_gradient():
    loss = nn.MeanSquaredError()
    pred = np.array([[1.0, 2.0]])
    target = np.array([[0.0, 0.0]])
    assert loss(pred, target) == pytest.approx(2.5)
    np.testing.assert_allclose(loss.backward(), [[1.0, 2.0]])


@pytest.mark.parametrize("cls", [nn.SoftmaxCrossEntropy, nn.MeanSquaredError])
def test_backward_before_forward_raises(cls):
    with pytest.raises(RuntimeError):
        cls().backward()


def test_cross_entropy_mean_reduction_scaling(rng):
    """Duplicating the batch leaves the loss unchanged (mean reduction)."""
    logits = rng.normal(size=(4, 3))
    labels = rng.integers(0, 3, 4)
    loss = nn.SoftmaxCrossEntropy()
    single = loss(logits, labels)
    double = loss(np.vstack([logits, logits]), np.concatenate([labels, labels]))
    assert abs(single - double) < 1e-12
