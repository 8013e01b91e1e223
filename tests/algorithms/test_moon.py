"""MOON (model-contrastive FL) tests."""

import numpy as np
import pytest

from repro.algorithms import FedAvg, Moon, make_algorithm
from repro.algorithms.moon import _cosine_and_grad, contrastive_loss_and_grad
from repro.exceptions import ConfigError
from repro.fl.config import FLConfig
from repro.fl.trainer import run_federated
from repro.models import build_mlp


def _model_fn(fed, seed=0):
    return lambda: build_mlp(
        fed.spec.flat_dim, fed.spec.num_classes, np.random.default_rng(seed), (16,), feature_dim=8
    )


def test_validation():
    with pytest.raises(ConfigError):
        Moon(mu=-1.0)
    with pytest.raises(ConfigError):
        Moon(temperature=0.0)


def test_registry():
    assert isinstance(make_algorithm("moon", mu=2.0), Moon)


def test_cosine_and_grad_matches_numpy(rng):
    z = rng.normal(size=(4, 6))
    anchor = rng.normal(size=(4, 6))
    cos, _grad = _cosine_and_grad(z, anchor)
    for i in range(4):
        expected = z[i] @ anchor[i] / (np.linalg.norm(z[i]) * np.linalg.norm(anchor[i]))
        assert cos[i] == pytest.approx(expected, rel=1e-9)


def test_cosine_grad_finite_difference(rng):
    z = rng.normal(size=(3, 5))
    anchor = rng.normal(size=(3, 5))
    _cos, grad = _cosine_and_grad(z, anchor)
    eps = 1e-7
    for i in range(3):
        for j in range(5):
            zp = z.copy()
            zp[i, j] += eps
            cos_p, _ = _cosine_and_grad(zp, anchor)
            zm = z.copy()
            zm[i, j] -= eps
            cos_m, _ = _cosine_and_grad(zm, anchor)
            fd = (cos_p[i] - cos_m[i]) / (2 * eps)
            assert fd == pytest.approx(grad[i, j], abs=1e-6)


def test_contrastive_loss_prefers_global_alignment(rng):
    """Loss is low when z ~ z_global and high when z ~ z_prev."""
    z_global = rng.normal(size=(8, 6))
    z_prev = rng.normal(size=(8, 6))
    aligned_loss, _ = contrastive_loss_and_grad(
        z_global + 0.01 * rng.normal(size=(8, 6)), z_global, z_prev, 0.5, 1.0
    )
    misaligned_loss, _ = contrastive_loss_and_grad(
        z_prev + 0.01 * rng.normal(size=(8, 6)), z_global, z_prev, 0.5, 1.0
    )
    assert aligned_loss < misaligned_loss


def test_contrastive_grad_finite_difference(rng):
    z = rng.normal(size=(4, 5))
    z_global = rng.normal(size=(4, 5))
    z_prev = rng.normal(size=(4, 5))
    _loss, grad = contrastive_loss_and_grad(z, z_global, z_prev, 0.5, 1.5)
    eps = 1e-7
    for i in range(4):
        for j in range(5):
            zp = z.copy()
            zp[i, j] += eps
            lp, _ = contrastive_loss_and_grad(zp, z_global, z_prev, 0.5, 1.5)
            zm = z.copy()
            zm[i, j] -= eps
            lm, _ = contrastive_loss_and_grad(zm, z_global, z_prev, 0.5, 1.5)
            fd = (lp - lm) / (2 * eps)
            assert fd == pytest.approx(grad[i, j], abs=1e-6)


def test_mu_zero_equals_fedavg(toy_federation, fast_config):
    moon = Moon(mu=0.0)
    run_federated(moon, toy_federation, _model_fn(toy_federation), fast_config)
    avg = FedAvg()
    run_federated(avg, toy_federation, _model_fn(toy_federation), fast_config)
    np.testing.assert_allclose(moon.global_params, avg.global_params, atol=1e-12)


def test_moon_tracks_previous_local_models(toy_federation, fast_config):
    moon = Moon(mu=1.0)
    run_federated(moon, toy_federation, _model_fn(toy_federation), fast_config)
    # After training, each client's stored previous model differs from
    # the initial model and from the global model.
    start = _model_fn(toy_federation)()
    from repro.nn.serialization import get_flat_params

    initial = get_flat_params(start)
    for cid in range(toy_federation.num_clients):
        assert not np.allclose(moon._prev_params.get(cid), initial)


def test_moon_reports_contrastive_loss(toy_federation):
    config = FLConfig(rounds=3, local_steps=2, batch_size=8, lr=0.1, seed=1)
    moon = Moon(mu=2.0)
    history = run_federated(moon, toy_federation, _model_fn(toy_federation), config)
    # The contrastive term is reported through the reg_loss channel.
    assert any(r.reg_loss > 0 for r in history.records)


def test_moon_learns_on_iid(iid_federation):
    config = FLConfig(rounds=20, local_steps=4, batch_size=16, lr=0.3, eval_every=5, seed=0)
    history = run_federated(
        Moon(mu=1.0), iid_federation, _model_fn(iid_federation), config
    )
    assert history.final_accuracy > 0.45
