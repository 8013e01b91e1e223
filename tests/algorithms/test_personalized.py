"""Personalization (local fine-tuning) tests."""

import numpy as np

from repro.algorithms import FedAvg, personalize
from repro.fl.config import FLConfig
from repro.fl.trainer import run_federated
from repro.models import build_mlp


def _model_fn(fed, seed=0):
    return lambda: build_mlp(
        fed.spec.flat_dim, fed.spec.num_classes, np.random.default_rng(seed), (16,), feature_dim=8
    )


def _trained_global(fed, rounds=10):
    config = FLConfig(rounds=rounds, local_steps=3, batch_size=16, lr=0.3, eval_every=10, seed=0)
    alg = FedAvg()
    run_federated(alg, fed, _model_fn(fed), config)
    return alg.global_params


def test_personalization_improves_local_accuracy():
    """Fine-tuning must raise local accuracy when the shared model has
    headroom.  A capacity-limited model (2-d features) cannot serve four
    heterogeneous shards at once, so adapting it locally gains a lot —
    the scenario the paper's future-work section targets."""
    from tests.conftest import make_toy_federation

    fed = make_toy_federation(similarity=0.5)

    def weak_fn():
        return build_mlp(
            fed.spec.flat_dim, fed.spec.num_classes,
            np.random.default_rng(0), (4,), feature_dim=2,
        )

    config = FLConfig(rounds=3, local_steps=3, batch_size=16, lr=0.2, eval_every=3, seed=0)
    alg = FedAvg()
    run_federated(alg, fed, weak_fn, config)
    result = personalize(alg.global_params, fed, weak_fn, finetune_steps=30, lr=0.2)
    assert result.mean_personalization_gain() > 0.05
    assert result.personalized_local_accuracy.shape == (fed.num_clients,)


def test_personalization_costs_global_accuracy_on_noniid(toy_federation):
    """The flip side: a model personalized to a 1-class shard forgets
    the other classes."""
    global_params = _trained_global(toy_federation)
    result = personalize(
        global_params, toy_federation, _model_fn(toy_federation),
        finetune_steps=30, lr=0.2,
    )
    from repro.fl.client import evaluate_model
    from repro.nn.serialization import set_flat_params

    model = _model_fn(toy_federation)()
    set_flat_params(model, global_params)
    _loss, global_acc = evaluate_model(model, toy_federation.test)
    assert result.mean_forgetting(global_acc) > -0.05  # rarely improves


def test_personalization_deterministic(toy_federation):
    global_params = _trained_global(toy_federation)
    a = personalize(global_params, toy_federation, _model_fn(toy_federation), seed=5)
    b = personalize(global_params, toy_federation, _model_fn(toy_federation), seed=5)
    np.testing.assert_array_equal(
        a.personalized_local_accuracy, b.personalized_local_accuracy
    )
