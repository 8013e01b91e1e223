"""Cross-module integration tests.

These exercise whole-system behaviours that no single-module test can:
the regularizer actually shrinking cross-client feature discrepancy
during federated training, end-to-end composition of compression +
regularization + selection, and system-level reproducibility.
"""

import numpy as np
import pytest

from repro.algorithms import FedAvg, RFedAvgPlus, make_algorithm
from repro.analysis.tsne import client_marginal_discrepancy
from repro.fl.config import FLConfig
from repro.fl.selection import PowerOfChoiceSelector
from repro.fl.trainer import run_federated
from repro.models import build_mlp
from repro.nn.serialization import set_flat_params
from tests.conftest import make_toy_federation


def _model_fn(fed, seed=0):
    return lambda: build_mlp(
        fed.spec.flat_dim, fed.spec.num_classes, np.random.default_rng(seed), (16,), feature_dim=8
    )


def _client_marginals(alg, fed, model_fn):
    model = model_fn()
    set_flat_params(model, alg.global_params)
    model.eval()
    return [model.features.forward(shard.x) for shard in fed.clients]


def test_regularizer_shrinks_feature_discrepancy_end_to_end():
    """The core mechanism, measured through the whole stack: after
    training, rFedAvg+'s clients have closer feature marginals than
    FedAvg's on the same non-IID federation."""
    fed = make_toy_federation(similarity=0.0)
    config = FLConfig(rounds=15, local_steps=4, batch_size=16, lr=0.3, eval_every=15, seed=0)
    model_fn = _model_fn(fed)

    avg = FedAvg()
    run_federated(avg, fed, model_fn, config)
    reg = RFedAvgPlus(lam=0.05)
    run_federated(reg, fed, model_fn, config)

    disc_avg = client_marginal_discrepancy(_client_marginals(avg, fed, model_fn))
    disc_reg = client_marginal_discrepancy(_client_marginals(reg, fed, model_fn))
    assert disc_reg < disc_avg


def test_regularizer_tracks_its_own_loss_down():
    """The reported reg_loss should trend downward as embeddings align."""
    fed = make_toy_federation(similarity=0.0)
    config = FLConfig(rounds=16, local_steps=4, batch_size=16, lr=0.3, eval_every=16, seed=1)
    alg = RFedAvgPlus(lam=0.05)
    history = run_federated(alg, fed, _model_fn(fed), config)
    reg_losses = np.array([r.reg_loss for r in history.records[1:]])  # skip warm-up
    assert reg_losses[-4:].mean() < reg_losses[:4].mean()


def test_full_stack_composition_runs():
    """Regularizer + quantized uploads + loss-biased selection together."""
    fed = make_toy_federation(similarity=0.0)
    config = FLConfig(rounds=6, local_steps=3, batch_size=16, lr=0.2,
                      sample_ratio=0.5, seed=2,
                      compression="quantize:8", error_feedback=False)
    alg = RFedAvgPlus(lam=1e-3)
    history = run_federated(
        alg, fed, _model_fn(fed), config,
        selector=PowerOfChoiceSelector(0.5, candidate_factor=2.0),
    )
    assert len(history.records) == 6
    assert np.isfinite(history.final_accuracy)
    assert alg.ledger.total("up:model") < alg.ledger.total("down:model")


@pytest.mark.parametrize("name,kwargs", [
    ("rfedavg", {"lam": 1e-3}),
    ("rfedavg+", {"lam": 1e-3}),
    ("scaffold", {}),
])
def test_algorithms_bit_reproducible(name, kwargs):
    """System-level determinism across independently constructed runs."""
    fed = make_toy_federation(similarity=0.0)
    config = FLConfig(rounds=4, local_steps=2, batch_size=8, lr=0.1, seed=7)
    first = make_algorithm(name, **kwargs)
    run_federated(first, fed, _model_fn(fed), config)
    second = make_algorithm(name, **kwargs)
    run_federated(second, fed, _model_fn(fed), config)
    np.testing.assert_array_equal(first.global_params, second.global_params)


def test_history_bytes_match_ledger():
    """The per-round bytes recorded in History must equal the ledger's."""
    fed = make_toy_federation(similarity=0.0)
    config = FLConfig(rounds=3, local_steps=2, batch_size=8, lr=0.1, seed=3)
    alg = RFedAvgPlus(lam=1e-3)
    history = run_federated(alg, fed, _model_fn(fed), config)
    for round_idx, record in enumerate(history.records):
        ledger_round = alg.ledger.round_bytes(round_idx)
        assert record.bytes_down == ledger_round.get("down", 0)
        assert record.bytes_up == ledger_round.get("up", 0)


def test_lstm_federated_end_to_end():
    """The sequence path (Embedding -> LSTM -> regularizer) through the
    full federated stack with RMSProp, as the paper runs Sent140."""
    from repro.experiments import build_sent140_federation, default_model_fn

    fed = build_sent140_federation(num_users=6, seed=0)
    config = FLConfig(rounds=3, local_steps=2, batch_size=8, optimizer="rmsprop",
                      lr=0.01, eval_every=1, seed=0)
    history = run_federated(
        RFedAvgPlus(lam=1e-2), fed, default_model_fn("lstm", fed.spec, scale=0.1), config
    )
    assert np.isfinite(history.final_accuracy)
    assert history.records[-1].reg_loss >= 0.0
