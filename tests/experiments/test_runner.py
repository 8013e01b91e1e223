"""Runner and RunResult tests."""

import numpy as np
import pytest

from repro.experiments.runner import RunResult, compare_algorithms, run_grid
from repro.fl.config import FLConfig
from repro.fl.metrics import History, RoundRecord
from repro.models import build_mlp
from tests.conftest import make_toy_federation


def _fed_builder(seed):
    return make_toy_federation(similarity=0.0)


def _model_fn_builder(fed, seed):
    return lambda: build_mlp(
        fed.spec.flat_dim, fed.spec.num_classes, np.random.default_rng(seed), (16,), feature_dim=8
    )


def _config():
    return FLConfig(rounds=3, local_steps=2, batch_size=8, lr=0.1, seed=0)


def test_run_grid_repeats(rng):
    result = run_grid(
        "fedavg", _fed_builder, _model_fn_builder, _config(), repeats=2
    )
    assert result.algorithm == "fedavg"
    assert len(result.histories) == 2


def test_repeats_vary_seed(rng):
    result = run_grid(
        "fedavg", _fed_builder, _model_fn_builder, _config(), repeats=2
    )
    a, b = result.histories
    assert not np.array_equal(a.train_losses(), b.train_losses())


def test_algorithm_kwargs_forwarded():
    result = run_grid(
        "fedprox", _fed_builder, _model_fn_builder, _config(), repeats=1, mu=0.5
    )
    assert len(result.histories) == 1


def test_compare_algorithms_runs_each():
    results = compare_algorithms(
        {"fedavg": {}, "rfedavg+": {"lam": 1e-3}},
        _fed_builder,
        _model_fn_builder,
        _config(),
    )
    assert set(results) == {"fedavg", "rfedavg+"}
    assert all(len(r.histories) == 1 for r in results.values())


def _result_with_accs(curves):
    result = RunResult(algorithm="x")
    for accs in curves:
        hist = History(algorithm="x")
        for i, acc in enumerate(accs):
            rec = RoundRecord(round_idx=i, train_loss=1.0, test_accuracy=acc, wall_time_sec=0.1)
            hist.append(rec)
        result.histories.append(hist)
    return result


def test_accuracy_mean_std():
    result = _result_with_accs([[0.5, 0.6], [0.7, 0.8]])
    mean, std = result.accuracy_mean_std(tail=1)
    assert mean == pytest.approx(0.7)
    assert std == pytest.approx(0.1)


def test_mean_accuracy_curve():
    result = _result_with_accs([[0.2, 0.4], [0.4, 0.6]])
    curve = result.mean_accuracy_curve()
    np.testing.assert_allclose(curve[:, 1], [0.3, 0.5])
    np.testing.assert_array_equal(curve[:, 0], [0, 1])


def test_rounds_to_reach_median():
    result = _result_with_accs([[0.1, 0.6, 0.9], [0.1, 0.2, 0.6]])
    # Median of [1, 2] is 1.5, truncated to an integer round index.
    assert result.rounds_to_reach(0.5) == 1
    assert result.rounds_to_reach(0.99) is None


# -- checkpointed grids -----------------------------------------------------------


def test_checkpointed_repeats_get_isolated_cell_directories(tmp_path):
    config = _config().with_updates(checkpoint_dir=str(tmp_path))
    run_grid("fedavg", _fed_builder, _model_fn_builder, config, repeats=2)
    for rep in range(2):
        cell = tmp_path / f"fedavg-rep{rep}"
        assert (cell / "result.json").is_file()
        assert list(cell.glob("ckpt-*.rck"))


def test_grid_resume_skips_finished_cells(tmp_path, monkeypatch):
    import repro.experiments.runner as runner_mod

    config = _config().with_updates(checkpoint_dir=str(tmp_path))
    first = run_grid("fedavg", _fed_builder, _model_fn_builder, config, repeats=2)

    calls = []
    real_run = runner_mod.run_federated

    def counting_run(*args, **kwargs):
        calls.append(args)
        return real_run(*args, **kwargs)

    monkeypatch.setattr(runner_mod, "run_federated", counting_run)
    again = run_grid(
        "fedavg", _fed_builder, _model_fn_builder,
        config.with_updates(resume=True), repeats=2,
    )
    assert calls == []  # every cell came from its result.json marker
    for h_first, h_again in zip(first.histories, again.histories):
        np.testing.assert_array_equal(h_first.train_losses(), h_again.train_losses())


def test_grid_resume_reruns_only_unfinished_cells(tmp_path, monkeypatch):
    import repro.experiments.runner as runner_mod

    baseline = run_grid(
        "fedavg", _fed_builder, _model_fn_builder, _config(), repeats=2
    )
    config = _config().with_updates(checkpoint_dir=str(tmp_path), checkpoint_keep=50)
    run_grid("fedavg", _fed_builder, _model_fn_builder, config, repeats=2)

    # Simulate a crash midway through repeat 1: its marker and newest
    # checkpoints are gone, only rounds 0..1 survive.
    crashed = tmp_path / "fedavg-rep1"
    (crashed / "result.json").unlink()
    (crashed / "ckpt-00000002.rck").unlink()

    calls = []
    real_run = runner_mod.run_federated

    def counting_run(*args, **kwargs):
        calls.append(args)
        return real_run(*args, **kwargs)

    monkeypatch.setattr(runner_mod, "run_federated", counting_run)
    resumed = run_grid(
        "fedavg", _fed_builder, _model_fn_builder,
        config.with_updates(resume=True), repeats=2,
    )
    assert len(calls) == 1  # only the crashed cell re-entered the trainer
    for h_base, h_res in zip(baseline.histories, resumed.histories):
        np.testing.assert_array_equal(h_base.train_losses(), h_res.train_losses())
        np.testing.assert_array_equal(
            [r.test_accuracy for r in h_base.records],
            [r.test_accuracy for r in h_res.records],
        )
    assert (crashed / "result.json").is_file()  # marker rewritten on completion
