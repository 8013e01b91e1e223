"""Fault-injection tests."""

import numpy as np
import pytest

from repro.algorithms import FedAvg
from repro.exceptions import ConfigError
from repro.fl.config import FLConfig
from repro.fl.faults import FaultModel
from repro.fl.trainer import run_federated
from repro.models import build_mlp


def _model_fn(fed, seed=0):
    return lambda: build_mlp(
        fed.spec.flat_dim, fed.spec.num_classes, np.random.default_rng(seed), (16,), feature_dim=8
    )


def test_validation():
    with pytest.raises(ConfigError):
        FaultModel(dropout_prob=1.0)
    with pytest.raises(ConfigError):
        FaultModel(dropout_prob=-0.1)
    with pytest.raises(ConfigError):
        FaultModel(corruption_scale=0.0)


def test_no_faults_is_identity():
    model = FaultModel()
    selected = np.array([0, 1, 2])
    np.testing.assert_array_equal(model.surviving_clients(selected), selected)
    assert not any(model.is_byzantine(client) for client in selected)


def test_dropout_rate_approximate():
    model = FaultModel(dropout_prob=0.5, seed=1)
    survivors = sum(
        len(model.surviving_clients(np.arange(10))) for _ in range(200)
    )
    assert 800 < survivors < 1200  # ~50% of 2000
    assert model.dropped_total > 0


def test_at_least_one_survivor():
    model = FaultModel(dropout_prob=0.99, seed=0)
    for _ in range(50):
        assert len(model.surviving_clients(np.arange(3))) >= 1


def test_byzantine_sign_flip():
    model = FaultModel(byzantine_clients=(2,), corruption_scale=2.0)
    anchor = np.zeros(3)
    honest = np.array([1.0, -1.0, 0.5])
    assert model.is_byzantine(2) and not model.is_byzantine(1)
    corrupted = model.corrupt(2, honest, anchor)
    np.testing.assert_allclose(corrupted, [-2.0, 2.0, -1.0])
    assert model.corrupted_total == 0  # pure: the commit counts corruptions


def test_dropout_run_completes_and_records_fewer_clients(toy_federation):
    config = FLConfig(rounds=5, local_steps=2, batch_size=8, lr=0.1, seed=2)
    alg = FedAvg().with_faults(FaultModel(dropout_prob=0.5, seed=3))
    history = run_federated(alg, toy_federation, _model_fn(toy_federation), config)
    assert np.isfinite(history.final_accuracy)
    assert alg.fault_model.dropped_total > 0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_byzantine_degrades_accuracy(iid_federation):
    config = FLConfig(rounds=20, local_steps=4, batch_size=16, lr=0.3, eval_every=5, seed=0)
    clean = FedAvg()
    hist_clean = run_federated(clean, iid_federation, _model_fn(iid_federation), config)
    attacked = FedAvg().with_faults(
        FaultModel(byzantine_clients=(0, 1), corruption_scale=3.0, seed=0)
    )
    hist_attacked = run_federated(
        attacked, iid_federation, _model_fn(iid_federation), config
    )
    # Half the federation flipping its updates must hurt.
    assert hist_attacked.final_accuracy < hist_clean.final_accuracy
