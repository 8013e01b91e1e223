"""Model zoo tests."""

import numpy as np
import pytest

from repro.data.dataset import DatasetSpec
from repro.exceptions import ConfigError
from repro.models import (
    SplitModel,
    build_cnn,
    build_logistic,
    build_lstm_classifier,
    build_mlp,
    build_model,
)
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.serialization import num_params
from tests.helpers import split_model_objective_gradcheck


IMAGE_SPEC = DatasetSpec("img", "image", (1, 12, 12), 10)
RGB_SPEC = DatasetSpec("rgb", "image", (3, 12, 12), 10)
SEQ_SPEC = DatasetSpec("seq", "sequence", (8,), 2, vocab_size=50)


def test_split_model_caches_features(rng):
    model = build_mlp(10, 3, rng, (8,), feature_dim=4)
    x = rng.normal(size=(5, 1, 2, 5))
    model.forward(x)
    assert model.last_features.shape == (5, 4)


def test_split_model_last_features_before_forward_raises(rng):
    model = build_mlp(10, 3, rng, (8,), feature_dim=4)
    with pytest.raises(RuntimeError):
        _ = model.last_features


def test_split_model_feature_param_count(rng):
    """phi (the w~ part of w) and the head partition the parameters."""
    model = build_mlp(10, 3, rng, (8,), feature_dim=4)
    head_params = 4 * 3 + 3
    assert num_params(model.features) == num_params(model) - head_params
    assert num_params(model.head) == head_params


def test_cnn_paper_architecture_dimensions(rng):
    """scale=1.0 must reproduce the paper's CNN: 32/64 channels and the
    512-unit FC feature layer on which MMD is computed."""
    model = build_cnn(1, 28, 10, rng, scale=1.0)
    assert model.feature_dim == 512
    conv1 = model.features[0]
    conv2 = model.features[3]
    assert conv1.out_channels == 32
    assert conv2.out_channels == 64
    assert conv1.kernel_size == 5


def test_cnn_scaled_keeps_shape(rng):
    model = build_cnn(3, 12, 10, rng, scale=0.25)
    out = model.forward(rng.normal(size=(2, 3, 12, 12)))
    assert out.shape == (2, 10)


def test_cnn_rejects_bad_image_size(rng):
    with pytest.raises(ValueError):
        build_cnn(1, 10, 10, rng)


def test_lstm_paper_architecture(rng):
    """2-layer LSTM, 256-d FC feature output (the paper's Sent140 model)."""
    model = build_lstm_classifier(100, 2, rng)
    assert model.feature_dim == 256
    lstm = model.features[1]
    assert lstm.num_layers == 2


def test_lstm_frozen_pretrained(rng):
    pre = rng.normal(size=(30, 50))
    model = build_lstm_classifier(
        30, 2, rng, embed_dim=50, pretrained_embeddings=pre, freeze_embeddings=True
    )
    emb = model.features[0]
    np.testing.assert_array_equal(emb.weight.data, pre)
    assert not emb.trainable


def test_logistic_is_affine(rng):
    """The convex model: output must be exactly linear in the input."""
    model = build_logistic(6, 3, rng)
    x1 = rng.normal(size=(1, 1, 2, 3))
    x2 = rng.normal(size=(1, 1, 2, 3))
    y1 = model.forward(x1)
    y2 = model.forward(x2)
    y_mid = model.forward((x1 + x2) / 2)
    np.testing.assert_allclose(y_mid, (y1 + y2) / 2, atol=1e-12)


@pytest.mark.parametrize(
    "name,spec",
    [("cnn", IMAGE_SPEC), ("cnn", RGB_SPEC), ("mlp", IMAGE_SPEC),
     ("logistic", IMAGE_SPEC), ("lstm", SEQ_SPEC)],
)
def test_zoo_builds_and_runs(name, spec, rng):
    model = build_model(name, spec, seed=0, scale=0.25)
    assert isinstance(model, SplitModel)
    if spec.kind == "image":
        x = rng.normal(size=(3, *spec.input_shape))
    else:
        x = rng.integers(0, spec.vocab_size, size=(3, *spec.input_shape))
    out = model.forward(x)
    assert out.shape == (3, spec.num_classes)


def test_zoo_unknown_model():
    with pytest.raises(ConfigError):
        build_model("transformer", IMAGE_SPEC)
    with pytest.raises(ConfigError, match="unknown model 'gru'"):
        build_model("gru", SEQ_SPEC)


def test_zoo_kind_mismatch():
    with pytest.raises(ConfigError):
        build_model("cnn", SEQ_SPEC)
    with pytest.raises(ConfigError):
        build_model("lstm", IMAGE_SPEC)


def test_zoo_same_seed_same_model():
    from repro.nn.serialization import get_flat_params

    a = build_model("mlp", IMAGE_SPEC, seed=3)
    b = build_model("mlp", IMAGE_SPEC, seed=3)
    np.testing.assert_array_equal(get_flat_params(a), get_flat_params(b))


def test_cnn_gradcheck_with_feature_injection(rng):
    """The CNN must backprop exactly, including the regularizer hook."""
    model = build_cnn(1, 8, 3, rng, scale=0.1, feature_dim=6)
    x = rng.normal(size=(3, 1, 8, 8))
    y = rng.integers(0, 3, 3)
    target = rng.normal(size=6)
    loss_fn = SoftmaxCrossEntropy()
    from repro.core.regularizer import DistributionRegularizer

    reg = DistributionRegularizer(0.2, mode="loo")

    def objective_and_grads():
        logits = model.forward(x)
        task = loss_fn.forward(logits, y)
        result = reg.evaluate(model.last_features, target)
        return task + result.loss, loss_fn.backward(), result.feature_grad

    split_model_objective_gradcheck(model, objective_and_grads, rng, num_coords=8)
