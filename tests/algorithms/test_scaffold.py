"""SCAFFOLD tests."""

import numpy as np
import pytest

from repro.algorithms import Scaffold
from repro.exceptions import ConfigError
from repro.fl.config import FLConfig
from repro.fl.trainer import run_federated
from repro.models import build_mlp


def _model_fn(fed, seed=0):
    return lambda: build_mlp(
        fed.spec.flat_dim, fed.spec.num_classes, np.random.default_rng(seed), (16,), feature_dim=8
    )


def test_invalid_eta_g():
    with pytest.raises(ConfigError):
        Scaffold(eta_g=0.0)


def test_controls_initialized_zero_and_updated(toy_federation, fast_config):
    alg = Scaffold()
    run_federated(alg, toy_federation, _model_fn(toy_federation), fast_config)
    # After full-participation rounds every client control moved.
    norms = np.linalg.norm(alg.client_controls.full_table(), axis=1)
    assert np.all(norms > 0)
    assert np.linalg.norm(alg.server_control) > 0


def test_server_control_is_participation_weighted_mean(toy_federation):
    """After one full-participation round, c = mean of client controls."""
    config = FLConfig(rounds=1, local_steps=2, batch_size=8, lr=0.1, seed=1)
    alg = Scaffold()
    run_federated(alg, toy_federation, _model_fn(toy_federation), config)
    np.testing.assert_allclose(
        alg.server_control, alg.client_controls.full_table().mean(axis=0), atol=1e-12
    )


def test_partial_participation_leaves_others_untouched(toy_federation):
    config = FLConfig(rounds=1, local_steps=2, batch_size=8, lr=0.1, sample_ratio=0.5, seed=1)
    alg = Scaffold()
    run_federated(alg, toy_federation, _model_fn(toy_federation), config)
    norms = np.linalg.norm(alg.client_controls.full_table(), axis=1)
    assert (norms == 0).sum() == 2  # 2 of 4 clients never selected
    assert (norms > 0).sum() == 2


def test_comm_doubles_relative_to_fedavg(toy_federation, fast_config):
    alg = Scaffold()
    run_federated(alg, toy_federation, _model_fn(toy_federation), fast_config)
    model_bytes = alg.ledger.total("down:model")
    control_bytes = alg.ledger.total("down:control")
    assert control_bytes == model_bytes
    assert alg.ledger.total("up:control") == alg.ledger.total("up:model")


def test_scaffold_learns_on_iid(iid_federation):
    config = FLConfig(rounds=20, local_steps=4, batch_size=16, lr=0.3, eval_every=5, seed=0)
    history = run_federated(Scaffold(), iid_federation, _model_fn(iid_federation), config)
    assert history.final_accuracy > 0.5


def test_eta_g_scales_server_step(toy_federation):
    config = FLConfig(rounds=1, local_steps=2, batch_size=8, lr=0.05, seed=3)
    model_fn = _model_fn(toy_federation)
    from repro.nn.serialization import get_flat_params

    start = get_flat_params(model_fn())
    alg_small = Scaffold(eta_g=0.5)
    run_federated(alg_small, toy_federation, model_fn, config)
    alg_big = Scaffold(eta_g=1.0)
    run_federated(alg_big, toy_federation, model_fn, config)
    step_small = np.linalg.norm(alg_small.global_params - start)
    step_big = np.linalg.norm(alg_big.global_params - start)
    assert step_big == pytest.approx(2 * step_small, rel=1e-9)
