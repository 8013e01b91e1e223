"""Sweep utility tests."""

import numpy as np
import pytest

from repro.exceptions import ConfigError
from repro.experiments.sweeps import (
    SweepResult,
    sweep_algorithm_param,
    sweep_config_field,
)
from repro.fl.config import FLConfig
from repro.models import build_mlp
from tests.conftest import make_toy_federation


def _fed_builder(seed):
    return make_toy_federation(similarity=0.0)


def _model_fn_builder(fed, seed):
    return lambda: build_mlp(
        fed.spec.flat_dim, fed.spec.num_classes, np.random.default_rng(seed), (16,), feature_dim=8
    )


def _config():
    return FLConfig(rounds=3, local_steps=2, batch_size=8, lr=0.2, seed=0)


def test_sweep_result_best_and_table():
    result = SweepResult(knob="lam", values=[0.1, 0.2], accuracies=[0.5, 0.7])
    assert result.best() == (0.2, 0.7)
    table = result.as_table()
    assert "lam" in table and "0.7000" in table


def test_sweep_result_empty_best():
    with pytest.raises(ConfigError):
        SweepResult(knob="x").best()


def test_sweep_algorithm_param_runs_each_value():
    result = sweep_algorithm_param(
        "rfedavg+", "lam", [0.0, 1e-3], _fed_builder, _model_fn_builder, _config()
    )
    assert result.values == [0.0, 1e-3]
    assert len(result.accuracies) == 2
    assert all(0.0 <= a <= 1.0 for a in result.accuracies)


def test_sweep_config_field():
    result = sweep_config_field(
        "fedavg", "local_steps", [1, 3], _fed_builder, _model_fn_builder, _config()
    )
    assert result.values == [1, 3]
    assert len(result.accuracies) == 2


def test_sweeps_are_deterministic():
    a = sweep_config_field(
        "fedavg", "batch_size", [8], _fed_builder, _model_fn_builder, _config()
    )
    b = sweep_config_field(
        "fedavg", "batch_size", [8], _fed_builder, _model_fn_builder, _config()
    )
    assert a.accuracies == b.accuracies


def test_checkpointed_sweep_isolates_cells_and_resumes(tmp_path):
    """Each swept value checkpoints into its own subdirectory, and an
    interrupted sweep re-runs only its unfinished cells."""
    config = _config().with_updates(checkpoint_dir=str(tmp_path))
    first = sweep_config_field(
        "fedavg", "local_steps", [1, 2], _fed_builder, _model_fn_builder, config
    )
    for value in (1, 2):
        marker = tmp_path / f"local_steps-{value}" / "fedavg-rep0" / "result.json"
        assert marker.is_file()

    # Drop one cell's marker: only that value should retrain on resume.
    (tmp_path / "local_steps-2" / "fedavg-rep0" / "result.json").unlink()
    resumed = sweep_config_field(
        "fedavg", "local_steps", [1, 2], _fed_builder, _model_fn_builder,
        config.with_updates(resume=True),
    )
    assert resumed.values == first.values
    assert resumed.accuracies == first.accuracies
