"""Flat-parameter serialization tests."""

import numpy as np
import pytest

from repro import nn
from repro.nn.serialization import (
    add_flat_to_grads,
    get_flat_grads,
    get_flat_params,
    num_params,
    set_flat_params,
)


def _model(rng):
    return nn.Sequential(nn.Linear(4, 3, rng=rng), nn.ReLU(), nn.Linear(3, 2, rng=rng))


def test_num_params(rng):
    model = _model(rng)
    assert num_params(model) == 4 * 3 + 3 + 3 * 2 + 2


def test_roundtrip_preserves_values(rng):
    model = _model(rng)
    flat = get_flat_params(model)
    x = rng.normal(size=(2, 4))
    before = model(x)
    set_flat_params(model, np.zeros_like(flat))
    set_flat_params(model, flat)
    np.testing.assert_array_equal(model(x), before)


def test_flat_params_returns_copy(rng):
    model = _model(rng)
    flat = get_flat_params(model)
    flat[...] = 0.0
    assert not np.all(get_flat_params(model) == 0.0)


def test_set_flat_params_size_mismatch(rng):
    model = _model(rng)
    with pytest.raises(ValueError):
        set_flat_params(model, np.zeros(3))


def test_flat_grads_layout_matches_params(rng):
    model = _model(rng)
    x = rng.normal(size=(2, 4))
    loss_fn = nn.MeanSquaredError()
    loss_fn.forward(model(x), np.zeros((2, 2)))
    model.zero_grad()
    model.backward(loss_fn.backward())
    grads = get_flat_grads(model)
    assert grads.shape == get_flat_params(model).shape
    assert np.any(grads != 0.0)


def test_add_flat_to_grads(rng):
    model = _model(rng)
    model.zero_grad()
    extra = np.arange(num_params(model), dtype=np.float64)
    add_flat_to_grads(model, extra)
    np.testing.assert_array_equal(get_flat_grads(model), extra)
    add_flat_to_grads(model, extra)
    np.testing.assert_array_equal(get_flat_grads(model), 2 * extra)
    with pytest.raises(ValueError):
        add_flat_to_grads(model, np.zeros(1))


def test_empty_model_serializes():
    model = nn.Sequential(nn.ReLU())
    assert get_flat_params(model).size == 0
    assert get_flat_grads(model).size == 0
    set_flat_params(model, np.zeros(0))
