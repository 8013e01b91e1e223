"""Protocol-loop tests."""

import numpy as np
import pytest

from repro.algorithms import FedAvg, make_algorithm
from repro.fl.config import FLConfig
from repro.fl.trainer import run_federated
from repro.models import build_mlp
from repro.obs import Tracer


def _model_fn(fed, seed=0):
    spec = fed.spec
    return lambda: build_mlp(spec.flat_dim, spec.num_classes, np.random.default_rng(seed), (16,), feature_dim=8)


def test_run_records_every_round(toy_federation, fast_config):
    history = run_federated(FedAvg(), toy_federation, _model_fn(toy_federation), fast_config)
    assert len(history.records) == fast_config.rounds
    assert history.algorithm == "fedavg"
    assert all(r.wall_time_sec > 0 for r in history.records)
    assert all(r.num_selected == toy_federation.num_clients for r in history.records)


def test_eval_cadence(toy_federation):
    config = FLConfig(rounds=5, local_steps=1, batch_size=8, eval_every=2, seed=1)
    history = run_federated(FedAvg(), toy_federation, _model_fn(toy_federation), config)
    evaluated = [r.round_idx for r in history.records if r.test_accuracy is not None]
    assert evaluated == [0, 2, 4]  # every 2 plus the final round


def test_final_round_always_evaluated(toy_federation):
    config = FLConfig(rounds=4, local_steps=1, batch_size=8, eval_every=3, seed=1)
    history = run_federated(FedAvg(), toy_federation, _model_fn(toy_federation), config)
    assert history.records[-1].test_accuracy is not None
    assert history.final_accuracy == history.records[-1].test_accuracy


def test_comm_bytes_recorded(toy_federation, fast_config):
    history = run_federated(FedAvg(), toy_federation, _model_fn(toy_federation), fast_config)
    assert all(r.bytes_down > 0 and r.bytes_up > 0 for r in history.records)
    # FedAvg: symmetric model traffic.
    assert all(r.bytes_down == r.bytes_up for r in history.records)


def test_bit_reproducible_across_runs(toy_federation, fast_config):
    hist_a = run_federated(FedAvg(), toy_federation, _model_fn(toy_federation), fast_config)
    hist_b = run_federated(FedAvg(), toy_federation, _model_fn(toy_federation), fast_config)
    np.testing.assert_array_equal(hist_a.train_losses(), hist_b.train_losses())
    assert hist_a.final_accuracy == hist_b.final_accuracy


def test_seed_changes_trajectory(toy_federation, fast_config):
    hist_a = run_federated(FedAvg(), toy_federation, _model_fn(toy_federation), fast_config)
    hist_b = run_federated(
        FedAvg(), toy_federation, _model_fn(toy_federation), fast_config.with_updates(seed=99)
    )
    assert not np.array_equal(hist_a.train_losses(), hist_b.train_losses())


def test_partial_participation_selects_subset(toy_federation):
    config = FLConfig(rounds=3, local_steps=1, batch_size=8, sample_ratio=0.5, seed=0)
    history = run_federated(FedAvg(), toy_federation, _model_fn(toy_federation), config)
    assert all(r.num_selected == 2 for r in history.records)


def test_eval_per_client(toy_federation, fast_config):
    history = run_federated(
        FedAvg(), toy_federation, _model_fn(toy_federation), fast_config, eval_per_client=True
    )
    assert history.per_client_accuracy is not None
    assert history.per_client_accuracy.shape == (toy_federation.num_clients,)
    assert np.all((history.per_client_accuracy >= 0) & (history.per_client_accuracy <= 1))


def test_round_callbacks_invoked(toy_federation, fast_config):
    seen, also = [], []
    run_federated(
        FedAvg(), toy_federation, _model_fn(toy_federation), fast_config,
        callbacks=[
            lambda rec: seen.append(rec.round_idx),
            lambda rec: also.append(rec.train_loss),
        ],
    )
    assert seen == list(range(fast_config.rounds))
    assert len(also) == fast_config.rounds


def test_unknown_keyword_rejected(toy_federation, fast_config):
    with pytest.raises(TypeError, match="unexpected keyword"):
        run_federated(
            FedAvg(), toy_federation, _model_fn(toy_federation), fast_config,
            progess=lambda rec: None,  # typo'd name must not pass silently
        )


def test_optional_params_are_keyword_only(toy_federation, fast_config):
    with pytest.raises(TypeError):
        run_federated(
            FedAvg(), toy_federation, _model_fn(toy_federation), fast_config, True
        )


def test_traced_run_emits_expected_span_sequence(toy_federation, fast_config):
    tracer = Tracer()
    run_federated(
        FedAvg(), toy_federation, _model_fn(toy_federation), fast_config,
        tracer=tracer,
    )
    # One root span per round, each carrying the protocol phases in order.
    assert [root.name for root in tracer.roots] == ["round"] * fast_config.rounds
    for round_idx, root in enumerate(tracer.roots):
        assert root.attrs["round"] == round_idx
        phases = [child.name for child in root.children]
        trains = [p for p in phases if p == "local_train"]
        assert len(trains) == toy_federation.num_clients
        # sample -> broadcast -> local_train... -> aggregate -> eval.
        assert phases[0] == "sample"
        assert phases[1] == "broadcast"
        assert phases[-2] == "aggregate"
        assert phases[-1] == "eval"  # eval_every=1 in fast_config
        assert all(child.duration >= 0 for child in root.children)
    clients = sorted(
        child.attrs["client"]
        for child in tracer.roots[0].children
        if child.name == "local_train"
    )
    assert clients == list(range(toy_federation.num_clients))


def test_traced_run_counts_bytes_and_rounds(toy_federation, fast_config):
    tracer = Tracer()
    history = run_federated(
        FedAvg(), toy_federation, _model_fn(toy_federation), fast_config,
        tracer=tracer,
    )
    snap = tracer.metrics.snapshot()
    assert snap["counters"]["rounds.completed"] == fast_config.rounds
    down = snap["counters"]['comm.bytes{direction=down}']
    up = snap["counters"]['comm.bytes{direction=up}']
    assert down == sum(r.bytes_down for r in history.records)
    assert up == sum(r.bytes_up for r in history.records)


def test_traced_matches_untraced_trajectory(toy_federation, fast_config):
    plain = run_federated(FedAvg(), toy_federation, _model_fn(toy_federation), fast_config)
    traced = run_federated(
        FedAvg(), toy_federation, _model_fn(toy_federation), fast_config,
        tracer=Tracer(),
    )
    np.testing.assert_array_equal(plain.train_losses(), traced.train_losses())
    assert plain.final_accuracy == traced.final_accuracy


def test_learning_happens_on_iid_data(iid_federation):
    config = FLConfig(rounds=25, local_steps=4, batch_size=16, lr=0.3, eval_every=5, seed=0)
    history = run_federated(FedAvg(), iid_federation, _model_fn(iid_federation), config)
    assert history.final_accuracy > 0.5  # 4 classes, chance = 0.25
    assert history.train_losses()[-1] < history.train_losses()[0]


@pytest.mark.parametrize("name,kwargs", [
    ("fedavg", {}),
    ("fedprox", {"mu": 0.1}),
    ("scaffold", {}),
    ("qfedavg", {"q": 1.0}),
    ("rfedavg", {"lam": 1e-3}),
    ("rfedavg+", {"lam": 1e-3}),
    ("rfedavg_exact", {"lam": 1e-3}),
])
def test_every_algorithm_completes_a_run(toy_federation, fast_config, name, kwargs):
    history = run_federated(
        make_algorithm(name, **kwargs), toy_federation, _model_fn(toy_federation), fast_config
    )
    assert len(history.records) == fast_config.rounds
    assert np.isfinite(history.final_accuracy)
