"""Client-side primitive tests."""

import numpy as np
import pytest

from repro.data.dataset import ArrayDataset
from repro.fl.client import compute_mean_embedding, evaluate_model, local_sgd_steps
from repro.fl.config import FLConfig
from repro.models import build_cnn, build_lstm_classifier, build_mlp
from repro.nn.serialization import get_flat_params


def _data(n=60, dim=10, classes=3, seed=0):
    gen = np.random.default_rng(seed)
    y = gen.integers(0, classes, n)
    means = gen.normal(0, 2.0, size=(classes, dim))
    x = means[y] + gen.normal(0, 0.3, size=(n, dim))
    return ArrayDataset(x.reshape(n, 1, 1, dim), y)


def _model(rng, dim=10, classes=3):
    return build_mlp(dim, classes, rng, (16,), feature_dim=8)


def test_local_sgd_reduces_loss(rng):
    model = _model(rng)
    data = _data()
    config = FLConfig(rounds=1, local_steps=40, batch_size=16, lr=0.2)
    loss_before, _ = evaluate_model(model, data)
    local_sgd_steps(model, data, config, rng)
    loss_after, _ = evaluate_model(model, data)
    assert loss_after < loss_before


def test_local_sgd_returns_mean_losses(rng):
    model = _model(rng)
    config = FLConfig(rounds=1, local_steps=5, batch_size=8, lr=0.1)
    result = local_sgd_steps(model, _data(), config, rng)
    assert result.num_steps == 5
    assert result.mean_task_loss > 0
    assert result.mean_reg_loss == 0.0  # no hook given


def test_local_sgd_applies_reg_hook(rng):
    model = _model(rng)
    config = FLConfig(rounds=1, local_steps=3, batch_size=8, lr=0.1)
    calls = []

    def reg_hook(features):
        calls.append(features.shape)
        return 0.25, np.zeros_like(features)

    result = local_sgd_steps(model, _data(), config, rng, reg_hook=reg_hook)
    assert len(calls) == 3
    assert all(shape == (8, 8) for shape in calls)
    assert result.mean_reg_loss == pytest.approx(0.25)


def test_reg_hook_returning_none_is_skipped(rng):
    model = _model(rng)
    config = FLConfig(rounds=1, local_steps=2, batch_size=8, lr=0.1)
    result = local_sgd_steps(model, _data(), config, rng, reg_hook=lambda f: None)
    assert result.mean_reg_loss == 0.0


def test_grad_hook_can_freeze_training(rng):
    """A hook that zeroes all gradients must leave parameters unchanged."""
    model = _model(rng)
    before = get_flat_params(model)
    config = FLConfig(rounds=1, local_steps=4, batch_size=8, lr=0.5)

    def freeze(m):
        for p in m.parameters():
            p.grad[...] = 0.0

    local_sgd_steps(model, _data(), config, rng, grad_hook=freeze)
    np.testing.assert_array_equal(get_flat_params(model), before)


def test_step_offset_shifts_schedule(rng):
    from repro.nn.optim import InverseDecayLR

    data = _data()
    config = FLConfig(
        rounds=1, local_steps=1, batch_size=60, lr=0.0,
        lr_schedule=InverseDecayLR(scale=1.0, gamma=1.0),
    )
    gen_a = np.random.default_rng(0)
    gen_b = np.random.default_rng(0)
    model_a = _model(np.random.default_rng(1))
    model_b = _model(np.random.default_rng(1))
    local_sgd_steps(model_a, data, config, gen_a, step_offset=0)  # lr=1
    local_sgd_steps(model_b, data, config, gen_b, step_offset=9)  # lr=0.1
    start = get_flat_params(_model(np.random.default_rng(1)))
    step_a = np.linalg.norm(get_flat_params(model_a) - start)
    step_b = np.linalg.norm(get_flat_params(model_b) - start)
    assert step_a > 5 * step_b


def test_evaluate_model_perfect_and_chance(rng):
    model = _model(rng)
    data = _data(n=40)
    loss, acc = evaluate_model(model, data)
    assert 0.0 <= acc <= 1.0
    assert loss > 0.0


def test_evaluate_model_batching_invariance(rng):
    model = _model(rng)
    data = _data(n=50)
    loss_small, acc_small = evaluate_model(model, data, batch_size=7)
    loss_big, acc_big = evaluate_model(model, data, batch_size=500)
    assert loss_small == pytest.approx(loss_big)
    assert acc_small == pytest.approx(acc_big)


def test_compute_mean_embedding_matches_manual(rng):
    model = _model(rng)
    data = _data(n=30)
    delta = compute_mean_embedding(model, data, batch_size=7)
    feats = model.features.forward(data.x)
    np.testing.assert_allclose(delta, feats.mean(axis=0))


def test_compute_mean_embedding_restores_train_mode(rng):
    model = _model(rng)
    model.train()
    compute_mean_embedding(model, _data(n=10))
    assert model.training


def _held_caches(model):
    """(layer, attribute) pairs still holding forward state or scratch."""
    from repro.obs.profiler import _leaf_modules

    return [
        (type(module).__name__, name)
        for module in [model, *_leaf_modules(model)]
        for name, value in vars(module).items()
        # Shapes (tuples of ints) are not activations; everything else
        # a layer keeps privately is.
        if name.startswith("_") and value is not None and not isinstance(value, tuple)
    ]


@pytest.mark.parametrize("helper", [evaluate_model, compute_mean_embedding])
def test_forward_only_helpers_leave_no_activation_cache(rng, helper):
    model = build_cnn(1, 8, 3, rng, scale=0.25)
    gen = np.random.default_rng(0)
    data = ArrayDataset(gen.normal(size=(20, 1, 8, 8)), gen.integers(0, 3, 20))
    model.forward(data.x[:4])
    assert _held_caches(model)  # the check can see a cache when there is one
    helper(model, data, batch_size=8)
    assert _held_caches(model) == []
    assert model.training


@pytest.mark.parametrize("build", [build_lstm_classifier])
@pytest.mark.parametrize("helper", [evaluate_model, compute_mean_embedding])
def test_forward_only_helpers_leave_nothing_on_recurrent_models(rng, helper, build, monkeypatch):
    model = build(30, 2, rng, scale=0.1)
    gen = np.random.default_rng(0)
    data = ArrayDataset(gen.integers(0, 30, size=(20, 7)), gen.integers(0, 2, 20))
    model.forward(data.x[:4])
    assert _held_caches(model)
    helper(model, data, batch_size=8)
    assert _held_caches(model) == []
    assert model.training
    # The recurrent cells do not wait for free_buffers(): an eval-mode
    # forward keeps neither backward state nor scratch in the first place.
    monkeypatch.setattr(model, "free_buffers", lambda: None)
    helper(model, data, batch_size=8)
    cells = model.features.layers[1].cells
    assert [(c._cache, c._scratch) for c in cells] == [(None, None)] * len(cells)


def test_local_sgd_deterministic_given_rng(rng):
    data = _data()
    config = FLConfig(rounds=1, local_steps=5, batch_size=8, lr=0.1)
    model_a = _model(np.random.default_rng(2))
    model_b = _model(np.random.default_rng(2))
    local_sgd_steps(model_a, data, config, np.random.default_rng(77))
    local_sgd_steps(model_b, data, config, np.random.default_rng(77))
    np.testing.assert_array_equal(get_flat_params(model_a), get_flat_params(model_b))
