"""rFedAvg+ (Algorithm 2) tests."""

import numpy as np
import pytest

from repro.algorithms import RFedAvg, RFedAvgPlus
from repro.fl.client import compute_mean_embedding
from repro.fl.config import FLConfig
from repro.fl.trainer import run_federated
from repro.models import build_mlp
from repro.nn.serialization import set_flat_params


def _model_fn(fed, seed=0):
    return lambda: build_mlp(
        fed.spec.flat_dim, fed.spec.num_classes, np.random.default_rng(seed), (16,), feature_dim=8
    )


def test_deltas_come_from_the_global_model(toy_federation):
    """After a round, every reported delta must equal the mean embedding
    of that client under the *aggregated global* model (the double
    synchronization) — not under the client's local model."""
    config = FLConfig(rounds=1, local_steps=3, batch_size=8, lr=0.1, seed=2)
    alg = RFedAvgPlus(lam=1e-3)
    run_federated(alg, toy_federation, _model_fn(toy_federation), config)
    model = _model_fn(toy_federation)()
    set_flat_params(model, alg.global_params)
    for cid, shard in enumerate(toy_federation.clients):
        expected = compute_mean_embedding(model, shard)
        np.testing.assert_allclose(alg.delta_table.get(cid), expected)


def test_consistent_deltas_have_lower_scatter_than_rfedavg(toy_federation):
    """The point of the double sync: delta inconsistency attributable to
    model divergence disappears (deltas still differ due to data)."""
    config = FLConfig(rounds=3, local_steps=8, batch_size=8, lr=0.3, seed=0)
    plus = RFedAvgPlus(lam=1e-3)
    run_federated(plus, toy_federation, _model_fn(toy_federation), config)
    plain = RFedAvg(lam=1e-3)
    run_federated(plain, toy_federation, _model_fn(toy_federation), config)
    # Measure *model-induced* scatter: recompute both tables' deltas and
    # compare to what a consistent global model would produce.
    model = _model_fn(toy_federation)()
    set_flat_params(model, plain.global_params)
    consistent = np.stack(
        [compute_mean_embedding(model, s) for s in toy_federation.clients]
    )
    drift_plain = np.linalg.norm(plain.delta_table.full_table() - consistent)
    set_flat_params(model, plus.global_params)
    consistent_plus = np.stack(
        [compute_mean_embedding(model, s) for s in toy_federation.clients]
    )
    drift_plus = np.linalg.norm(plus.delta_table.full_table() - consistent_plus)
    assert drift_plus < 1e-9  # exactly consistent by construction
    assert drift_plain > drift_plus


def test_broadcast_cost_scales_linearly_in_n(toy_federation, fast_config):
    """Downlink delta traffic per round is N * d (not N^2 * d)."""
    alg = RFedAvgPlus(lam=1e-3)
    run_federated(alg, toy_federation, _model_fn(toy_federation), fast_config)
    n = toy_federation.num_clients
    d = alg.model.feature_dim
    expected = (fast_config.rounds - 1) * n * d * fast_config.wire_bytes_per_scalar()
    assert alg.ledger.total("down:delta") == expected


def test_delta_traffic_smaller_than_rfedavg(toy_federation, fast_config):
    plus = RFedAvgPlus(lam=1e-3)
    run_federated(plus, toy_federation, _model_fn(toy_federation), fast_config)
    plain = RFedAvg(lam=1e-3)
    run_federated(plain, toy_federation, _model_fn(toy_federation), fast_config)
    n = toy_federation.num_clients
    assert plain.ledger.total("down:delta") == n * plus.ledger.total("down:delta")


def test_double_sync_costs_second_model_broadcast(toy_federation, fast_config):
    plus = RFedAvgPlus(lam=1e-3)
    run_federated(plus, toy_federation, _model_fn(toy_federation), fast_config)
    from repro.algorithms import FedAvg

    avg = FedAvg()
    run_federated(avg, toy_federation, _model_fn(toy_federation), fast_config)
    assert plus.ledger.total("down:model") == 2 * avg.ledger.total("down:model")


def test_round_zero_regularizer_off(toy_federation):
    config = FLConfig(rounds=2, local_steps=2, batch_size=8, lr=0.1, seed=1)
    alg = RFedAvgPlus(lam=5.0)
    history = run_federated(alg, toy_federation, _model_fn(toy_federation), config)
    assert history.records[0].reg_loss == 0.0
    assert history.records[1].reg_loss > 0.0


def test_partial_participation_updates_selected_only(toy_federation):
    config = FLConfig(rounds=1, local_steps=2, batch_size=8, lr=0.1, sample_ratio=0.5, seed=1)
    alg = RFedAvgPlus(lam=1e-3)
    run_federated(alg, toy_federation, _model_fn(toy_federation), config)
    assert len(alg.delta_table.reported_ids()) == 2


def test_learns_on_iid(iid_federation):
    config = FLConfig(rounds=20, local_steps=4, batch_size=16, lr=0.3, eval_every=5, seed=0)
    history = run_federated(
        RFedAvgPlus(lam=1e-4), iid_federation, _model_fn(iid_federation), config
    )
    assert history.final_accuracy > 0.5


def test_deltas_after_many_rounds_come_from_the_last_global_model(toy_federation):
    """Every round recomputes the deltas under that round's model: after
    three, no row holds an embedding under an older one."""
    config = FLConfig(rounds=3, local_steps=2, batch_size=8, lr=0.1, seed=4)
    alg = RFedAvgPlus(lam=1e-3)
    run_federated(alg, toy_federation, _model_fn(toy_federation), config)
    model = _model_fn(toy_federation)()
    set_flat_params(model, alg.global_params)
    assert alg.delta_table.reported_ids().tolist() == [0, 1, 2, 3]
    for cid, shard in enumerate(toy_federation.clients):
        np.testing.assert_array_equal(
            alg.delta_table.get(cid), compute_mean_embedding(model, shard)
        )


# blake2b-128 of the ``algorithm`` section (delta table, sync residuals)
# of the round-2 checkpoint of the run below, RECORDED FROM THE PARENT with
# its retired ``delta_cache`` entry dropped (``unpack_tree``, drop the key,
# ``pack_tree``); the parent's whole sections were (1416,
# "1108a7e0133bd362d20549f723fca016") and (8984,
# "23b8d09abdb23b528490995559336341").  The history section holds
# wall-clock times and is left out.
PARENT_ALGORITHM_SECTIONS = {
    "none": (456, "0821e2db0a2d71ffb9cd9a3daee74ae3"),
    "qsgd:8": (8024, "047d02394b817b9c8ede5fcde676c28e"),
}


@pytest.mark.parametrize("sync_compression", PARENT_ALGORITHM_SECTIONS)
def test_checkpointed_algorithm_state_is_the_parents_bytes(tmp_path, sync_compression):
    import hashlib

    from repro.ckpt.format import read_checkpoint
    from tests.conftest import make_toy_federation
    from tests.helpers import run_with_workers

    config = FLConfig(
        rounds=3, local_steps=2, batch_size=8, lr=0.1, seed=31,
        sync_compression=sync_compression,
        checkpoint_dir=str(tmp_path), checkpoint_every=3,
    )
    fed = make_toy_federation(similarity=0.0)
    run_with_workers("rfedavg+", {"lam": 1e-3}, fed, config, num_workers=1)
    _manifest, sections = read_checkpoint(tmp_path / "ckpt-00000002.rck")
    section = bytes(sections["algorithm"])
    size, digest = PARENT_ALGORITHM_SECTIONS[sync_compression]
    assert len(section) == size
    assert hashlib.blake2b(section, digest_size=16).hexdigest() == digest
