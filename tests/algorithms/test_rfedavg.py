"""rFedAvg (Algorithm 1) tests."""

import numpy as np

from repro.algorithms import RFedAvg
from repro.fl.config import FLConfig
from repro.fl.trainer import run_federated
from repro.models import build_mlp


def _model_fn(fed, seed=0):
    return lambda: build_mlp(
        fed.spec.flat_dim, fed.spec.num_classes, np.random.default_rng(seed), (16,), feature_dim=8
    )


def test_round_zero_has_no_regularizer(toy_federation):
    """Before any delta is reported, the regularizer must stay off."""
    config = FLConfig(rounds=1, local_steps=2, batch_size=8, lr=0.1, seed=1)
    alg = RFedAvg(lam=10.0)  # huge lambda would wreck the run if active
    history = run_federated(alg, toy_federation, _model_fn(toy_federation), config)
    assert history.records[0].reg_loss == 0.0


def test_regularizer_activates_after_first_round(toy_federation):
    config = FLConfig(rounds=3, local_steps=2, batch_size=8, lr=0.1, seed=1)
    alg = RFedAvg(lam=1.0)
    history = run_federated(alg, toy_federation, _model_fn(toy_federation), config)
    assert history.records[0].reg_loss == 0.0
    assert history.records[1].reg_loss > 0.0


def test_delta_table_filled_by_selected_clients(toy_federation):
    config = FLConfig(rounds=1, local_steps=2, batch_size=8, lr=0.1, sample_ratio=0.5, seed=1)
    alg = RFedAvg(lam=1e-3)
    run_federated(alg, toy_federation, _model_fn(toy_federation), config)
    assert len(alg.delta_table.reported_ids()) == 2  # only the selected half


def test_deltas_computed_with_local_models_are_inconsistent(toy_federation):
    """rFedAvg's deltas come from divergent local models, so the table
    scatter (delta inconsistency) is positive — the drawback the paper's
    Remarks call out."""
    config = FLConfig(rounds=2, local_steps=5, batch_size=8, lr=0.2, seed=0)
    alg = RFedAvg(lam=1e-3)
    run_federated(alg, toy_federation, _model_fn(toy_federation), config)
    assert alg.delta_table.delta_inconsistency() > 0.0


def test_broadcast_cost_scales_with_n_squared(toy_federation, fast_config):
    """Downlink delta traffic per round is N * (N * d) after round 0."""
    alg = RFedAvg(lam=1e-3)
    run_federated(alg, toy_federation, _model_fn(toy_federation), fast_config)
    n = toy_federation.num_clients
    d = alg.model.feature_dim
    per_round = n * n * d * fast_config.wire_bytes_per_scalar()
    # Rounds 1..R-1 broadcast the table (round 0 has nothing to send).
    expected = (fast_config.rounds - 1) * per_round
    assert alg.ledger.total("down:delta") == expected


def test_upload_includes_own_delta(toy_federation, fast_config):
    alg = RFedAvg(lam=1e-3)
    run_federated(alg, toy_federation, _model_fn(toy_federation), fast_config)
    n = toy_federation.num_clients
    d = alg.model.feature_dim
    expected = fast_config.rounds * n * d * fast_config.wire_bytes_per_scalar()
    assert alg.ledger.total("up:delta") == expected


def test_learns_on_iid(iid_federation):
    config = FLConfig(rounds=20, local_steps=4, batch_size=16, lr=0.3, eval_every=5, seed=0)
    history = run_federated(
        RFedAvg(lam=1e-4), iid_federation, _model_fn(iid_federation), config
    )
    assert history.final_accuracy > 0.5
