"""Grid, sweep and RunResult tests: every job is a RunPreset."""

import json

import numpy as np
import pytest

from repro.analysis.significance import paired_comparison
from repro.exceptions import CheckpointMismatchError, ConfigError, DataError
from repro.experiments import (
    RUN_PRESETS,
    RunResult,
    SweepResult,
    preset_algorithm,
    preset_config,
    preset_federation,
    preset_model_fn,
    run_grid,
    sweep,
    with_overrides,
)
from repro.fl.metrics import History, RoundRecord
from repro.fl.trainer import run_federated

# rFedAvg+ on 4 fully non-IID synth-MNIST clients, three tiny rounds.
TINY = with_overrides(
    RUN_PRESETS["quickstart"],
    {"rounds": 3, "local_steps": 2, "batch_size": 8, "lr": 0.1, "eval_every": 1,
     "clients": 4, "num_train": 160, "num_test": 60, "scale": 0.25,
     "num_workers": 1},
)
FEDAVG = with_overrides(TINY, {"algorithm": "fedavg"})


def _without_wall_times(history):
    out = history.to_dict()
    for record in out["records"]:
        record.pop("wall_time_sec")
    return out


def _count_trainer_calls(monkeypatch):
    import repro.experiments.facade as facade

    calls = []
    real_run = facade.run_federated

    def counting_run(*args, **kwargs):
        calls.append(args)
        return real_run(*args, **kwargs)

    monkeypatch.setattr(facade, "run_federated", counting_run)
    return calls


def test_run_grid_repeats():
    [(label, result)] = run_grid(TINY, repeats=2).items()
    assert label == result.algorithm == "rfedavg+"
    assert len(result.histories) == 2


def test_repeats_vary_seed():
    a, b = run_grid(FEDAVG, repeats=2)["fedavg"].histories
    assert not np.array_equal(a.train_losses(), b.train_losses())


def test_algorithm_kwargs_forwarded():
    grid = run_grid(TINY, {"prox": {"algorithm": "fedprox", "mu": 0.5}})
    assert grid["prox"].algorithm == grid["prox"].histories[0].algorithm == "fedprox"


def test_grid_runs_each_cell():
    grid = run_grid(TINY, {"fedavg": {"algorithm": "fedavg"}, "rfedavg+": {"lam": 1e-3}})
    assert list(grid) == ["fedavg", "rfedavg+"]
    assert all(len(r.histories) == 1 for r in grid.values())


def test_grid_repeats_are_run_federated_on_the_preset_pieces():
    """The equivalence the paper tables rely on: repeat k of a grid cell
    is, bit for bit, ``run_federated`` on the cell preset's federation,
    model factory, config and algorithm at seed ``seed + 1000 k``."""
    seed = 7
    cell = {"algorithm": "scaffold", "eta_g": 1.0, "lr": 0.05}
    grid = run_grid(TINY, {"scaffold": cell}, repeats=2, seed=seed)
    preset = with_overrides(TINY, cell)
    for rep, history in enumerate(grid["scaffold"].histories):
        s = seed + 1000 * rep
        fed = preset_federation(preset, s)
        expected = run_federated(
            preset_algorithm(preset), fed, preset_model_fn(preset, fed.spec, s),
            preset_config(preset, s),
        )
        assert _without_wall_times(history) == _without_wall_times(expected)


def test_grid_refuses_a_bad_knob_before_any_cell_runs(monkeypatch):
    calls = _count_trainer_calls(monkeypatch)
    with pytest.raises(ConfigError, match="bad overrides for algorithm 'fedavg'"):
        run_grid(TINY, {"ok": {}, "bad": {"algorithm": "fedavg", "lam": 0.1}})
    with pytest.raises(ConfigError, match="executor"):
        run_grid(TINY, {"ok": {}, "bad": {"executor": "bogus"}})
    assert calls == []


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
    np.testing.assert_allclose(result.tail_accuracies(tail=1), [0.6, 0.8])


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


def test_rounds_to_reach_counts_a_repeat_that_never_reaches_as_infinite():
    two = _result_with_accs([[0.1, 0.5, 0.6], [0.1, 0.2, 0.3]])
    assert two.rounds_to_reach(0.5) is None  # median of [1, inf]
    three = _result_with_accs([[0.1, 0.5], [0.1, 0.2], [0.5, 0.6]])
    assert three.rounds_to_reach(0.5) == 1  # median of [0, 1, inf]


# -- paired comparisons -----------------------------------------------------------


def test_identical_methods_not_significant():
    """A method against itself: zero difference, never significant."""
    grid = run_grid(FEDAVG, {"a": {}, "b": {}}, repeats=3)
    stats = paired_comparison(grid["a"].tail_accuracies(), grid["b"].tail_accuracies())
    assert stats.difference == pytest.approx(0.0)
    assert not stats.significant


def test_lambda_zero_equivalence_detected():
    """rFedAvg+ at lambda=0 is trajectory-identical to FedAvg — the
    paired cells must show exactly zero gap across all seeds."""
    grid = run_grid(TINY, {"plus": {"lam": 0.0}, "fedavg": {"algorithm": "fedavg"}},
                    repeats=2)
    np.testing.assert_array_equal(
        grid["plus"].tail_accuracies(), grid["fedavg"].tail_accuracies()
    )


def test_needs_two_repeats():
    grid = run_grid(FEDAVG, {"a": {}, "b": {}}, repeats=1)
    with pytest.raises(DataError):
        paired_comparison(grid["a"].tail_accuracies(), grid["b"].tail_accuracies())


def test_broken_method_is_flagged_significant():
    """FedProx with an absurd mu (unstable) vs FedAvg: the gap should be
    large; with matched seeds the paired test usually flags it.  We only
    assert the direction to keep the test robust."""
    grid = run_grid(
        with_overrides(FEDAVG, {"rounds": 6}),
        {"fedavg": {}, "fedprox": {"algorithm": "fedprox", "mu": 40.0}},
        repeats=3,
    )
    stats = paired_comparison(
        grid["fedavg"].tail_accuracies(), grid["fedprox"].tail_accuracies()
    )
    assert stats.mean_a >= stats.mean_b


# -- sweeps -----------------------------------------------------------------------


def test_sweep_result_best_and_table():
    result = SweepResult(knob="lam", values=[0.1, 0.2], accuracies=[0.5, 0.7])
    assert result.best() == (0.2, 0.7)
    table = result.as_table()
    assert "lam" in table and "0.7000" in table


def test_sweep_result_empty_best():
    with pytest.raises(ConfigError):
        SweepResult(knob="x").best()


def test_sweep_algorithm_param_runs_each_value():
    result = sweep(TINY, "lam", [0.0, 1e-3])
    assert result.values == [0.0, 1e-3]
    assert len(result.accuracies) == 2
    assert all(0.0 <= a <= 1.0 for a in result.accuracies)


def test_sweep_config_field():
    result = sweep(FEDAVG, "local_steps", [1, 3])
    assert result.values == [1, 3]
    assert len(result.accuracies) == 2


def test_sweep_preset_field():
    """The knob is routed like any override: ``clients`` is a preset
    field, and each value gets its own federation."""
    result = sweep(FEDAVG, "clients", [2, 4])
    grid = run_grid(FEDAVG, {"n2": {"clients": 2}, "n4": {"clients": 4}})
    assert result.accuracies == [r.accuracy_mean_std()[0] for r in grid.values()]


def test_sweeps_are_deterministic():
    a = sweep(FEDAVG, "batch_size", [8])
    b = sweep(FEDAVG, "batch_size", [8])
    assert a.accuracies == b.accuracies


# -- checkpointed grids -----------------------------------------------------------


def test_checkpointed_repeats_get_isolated_cell_directories(tmp_path):
    run_grid(with_overrides(FEDAVG, {"checkpoint_dir": str(tmp_path)}), repeats=2)
    for rep in range(2):
        cell = tmp_path / "fedavg" / f"fedavg-rep{rep}"
        assert (cell / "result.json").is_file()
        assert list(cell.glob("ckpt-*.rck"))


def test_grid_resume_skips_finished_cells(tmp_path, monkeypatch):
    preset = with_overrides(FEDAVG, {"checkpoint_dir": str(tmp_path)})
    first = run_grid(preset, repeats=2)["fedavg"]

    calls = _count_trainer_calls(monkeypatch)
    again = run_grid(with_overrides(preset, {"resume": True}), repeats=2)["fedavg"]
    assert calls == []  # every cell came from its result.json marker
    for h_first, h_again in zip(first.histories, again.histories):
        np.testing.assert_array_equal(h_first.train_losses(), h_again.train_losses())


def test_grid_resume_reruns_only_unfinished_cells(tmp_path, monkeypatch):
    baseline = run_grid(FEDAVG, repeats=2)["fedavg"]
    preset = with_overrides(
        FEDAVG, {"checkpoint_dir": str(tmp_path), "checkpoint_keep": 50}
    )
    run_grid(preset, repeats=2)

    # Simulate a crash midway through repeat 1: its marker and newest
    # checkpoints are gone, only rounds 0..1 survive.
    crashed = tmp_path / "fedavg" / "fedavg-rep1"
    (crashed / "result.json").unlink()
    (crashed / "ckpt-00000002.rck").unlink()

    calls = _count_trainer_calls(monkeypatch)
    resumed = run_grid(with_overrides(preset, {"resume": True}), repeats=2)["fedavg"]
    assert len(calls) == 1  # only the crashed cell re-entered the trainer
    for h_base, h_res in zip(baseline.histories, resumed.histories):
        np.testing.assert_array_equal(h_base.train_losses(), h_res.train_losses())
        np.testing.assert_array_equal(
            [r.test_accuracy for r in h_base.records],
            [r.test_accuracy for r in h_res.records],
        )
    assert (crashed / "result.json").is_file()  # marker rewritten on completion


def test_checkpointed_sweep_isolates_cells_and_resumes(tmp_path):
    """Each swept value checkpoints into its own subdirectory, and an
    interrupted sweep re-runs only its unfinished cells."""
    preset = with_overrides(FEDAVG, {"checkpoint_dir": str(tmp_path)})
    first = sweep(preset, "local_steps", [1, 2])
    for value in (1, 2):
        marker = tmp_path / f"local_steps-{value}" / "fedavg-rep0" / "result.json"
        assert marker.is_file()

    # Drop one cell's marker: only that value should retrain on resume.
    (tmp_path / "local_steps-2" / "fedavg-rep0" / "result.json").unlink()
    resumed = sweep(with_overrides(preset, {"resume": True}), "local_steps", [1, 2])
    assert resumed.values == first.values
    assert resumed.accuracies == first.accuracies


def test_grid_resume_refuses_a_finished_cell_of_another_job(tmp_path, monkeypatch):
    """A sweep resumed under another config must not reprint the old
    table: a finished cell's marker is checked like its checkpoints."""
    preset = with_overrides(
        TINY, {"checkpoint_dir": str(tmp_path), "resume": True, "rounds": 2}
    )
    first = sweep(preset, "lam", [0.0, 1e-3])
    assert sweep(preset, "lam", [0.0, 1e-3]).accuracies == first.accuracies

    calls = _count_trainer_calls(monkeypatch)
    longer = with_overrides(preset, {"rounds": 6, "lr": 0.05})
    with pytest.raises(CheckpointMismatchError, match="config_hash"):
        sweep(longer, "lam", [0.0, 1e-3])
    assert calls == []
    fresh = sweep(with_overrides(longer, {"checkpoint_dir": str(tmp_path / "fresh")}),
                  "lam", [0.0, 1e-3])
    assert fresh.accuracies != first.accuracies


def test_grid_resume_refuses_a_finished_cell_under_another_lambda(tmp_path, monkeypatch):
    """A cell's label need not name its hyperparameters: its marker's
    stamp does, so the same label under another λ is refused."""
    preset = with_overrides(TINY, {"checkpoint_dir": str(tmp_path), "resume": True})
    run_grid(preset, {"cell": {"lam": 1e-3}})
    marker = tmp_path / "cell" / "rfedavg+-rep0" / "result.json"
    assert json.loads(marker.read_text())["provenance"]["hyperparameters"] == {"lam": 1e-3}

    calls = _count_trainer_calls(monkeypatch)
    with pytest.raises(CheckpointMismatchError, match="hyperparameters.lam"):
        run_grid(preset, {"cell": {"lam": 10.0}})
    assert calls == []


def test_grid_resume_reruns_an_unstamped_marker_from_its_checkpoints(tmp_path, monkeypatch):
    """A marker with no provenance is not trusted: the repeat re-enters
    the trainer, which resumes from its own checkpoints and their check."""
    preset = with_overrides(FEDAVG, {"checkpoint_dir": str(tmp_path), "resume": True})
    [first] = run_grid(preset)["fedavg"].histories
    marker = tmp_path / "fedavg" / "fedavg-rep0" / "result.json"
    stale = History(algorithm="fedavg")
    marker.write_text(stale.to_json())

    calls = _count_trainer_calls(monkeypatch)
    [again] = run_grid(preset)["fedavg"].histories
    assert len(calls) == 1
    assert _without_wall_times(again) == _without_wall_times(first)
    assert json.loads(marker.read_text())["provenance"]["algorithm"] == "fedavg"

    marker.write_text(stale.to_json())
    with pytest.raises(CheckpointMismatchError, match="config_hash"):
        run_grid(with_overrides(preset, {"lr": 0.05}))
