"""FLConfig validation tests."""

import pytest

from repro.exceptions import ConfigError
from repro.fl.config import FLConfig


def test_defaults_valid():
    config = FLConfig()
    assert config.rounds == 30
    assert config.sample_ratio == 1.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"rounds": 0},
        {"local_steps": 0},
        {"batch_size": 0},
        {"sample_ratio": 0.0},
        {"sample_ratio": 1.5},
        {"eval_every": 0},
        {"optimizer": "adam"},
        {"sampler": "stratified:4"},
        {"sampler": "uniform:5"},
    ],
)
def test_invalid_fields_rejected(kwargs):
    with pytest.raises(ConfigError):
        FLConfig(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [{"buffer_timeout": 1.0}, {"wire_dtype_bytes": 4}, {"eval_batch": 128}],
)
def test_retired_fields_rejected(kwargs):
    (name,) = kwargs
    with pytest.raises(TypeError, match=name):
        FLConfig(**kwargs)


def test_with_updates_returns_new_config():
    config = FLConfig(rounds=10)
    updated = config.with_updates(rounds=20, lr=0.5)
    assert updated.rounds == 20
    assert updated.lr == 0.5
    assert config.rounds == 10  # original untouched


def test_with_updates_validates():
    with pytest.raises(ConfigError):
        FLConfig().with_updates(rounds=-1)


def test_config_is_frozen():
    config = FLConfig()
    with pytest.raises(Exception):
        config.rounds = 99


# -- the shared choice-knob registry ------------------------------------------------


def test_choice_registry_covers_all_choice_knobs():
    from repro.fl.config import CHOICES

    assert set(CHOICES) >= {
        "executor", "execution", "runtime", "optimizer", "dtype"
    }
    assert "transport" not in CHOICES


def test_transport_knob_is_gone(capsys):
    """The pool has one transport: asking for one is an unknown field /
    an unknown argument, like any other."""
    from repro.cli import main

    with pytest.raises(TypeError, match="transport"):
        FLConfig(transport="wire")
    with pytest.raises(SystemExit):
        main(["run", "--transport", "wire"])
    assert "unrecognized arguments: --transport wire" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["randk:0.1", "subsample:0.1", "sketch:0.05"])
def test_deleted_compression_stages_are_gone(spec):
    """The random-subsample and count-sketch stages (and the alias) are
    deleted: each is an unknown choice at FLConfig construction and on the
    CLI, and the message lists the stages that remain."""
    from repro.cli import main
    from repro.fl.compression import PIPELINE_STAGES

    remaining = str(("none", *PIPELINE_STAGES))
    assert remaining == "('none', 'topk', 'qsgd', 'sign', 'quantize')"
    with pytest.raises(ConfigError) as caught:
        FLConfig(compression=spec)
    message = str(caught.value)
    assert remaining in message and repr(spec.partition(":")[0]) in message
    with pytest.raises(SystemExit) as exited:
        main(["run", "--compression", spec])
    assert exited.value.code == f"repro: {message}"


def test_state_sharding_knob_is_gone(capsys):
    """Per-client tables have one layout: asking for one is an unknown
    field / an unknown argument, and no population-size threshold is
    left to pick one."""
    from repro.algorithms.base import FederatedAlgorithm
    from repro.cli import main

    with pytest.raises(TypeError, match="state_sharding"):
        FLConfig(state_sharding="dense")
    with pytest.raises(SystemExit):
        main(["run", "--state-sharding", "dense"])
    assert "unrecognized arguments: --state-sharding dense" in capsys.readouterr().err
    assert not hasattr(FederatedAlgorithm, "AUTO_SHARD_THRESHOLD")


@pytest.mark.parametrize(
    "kwargs,suggestion",
    [
        ({"executor": "proces"}, "process"),
        ({"history_mode": "strem"}, "stream"),
        ({"execution": "asynch"}, "async"),
        ({"runtime": "instan"}, "instant"),
        ({"optimizer": "rmsprp"}, "rmsprop"),
        ({"dtype": "float62"}, "float64"),
    ],
)
def test_choice_knob_typos_get_suggestions(kwargs, suggestion):
    with pytest.raises(ConfigError, match=f"did you mean {suggestion!r}"):
        FLConfig(**kwargs)


def test_validate_choice_message_is_shared():
    # CLI / FLConfig / make_runtime all funnel through one validator,
    # so the message shape is identical everywhere.
    from repro.fl.config import validate_choice

    with pytest.raises(ConfigError, match=r"executor must be one of"):
        validate_choice("executor", "nope")


def test_runtime_spec_validates_head_only():
    # Parameterized specs ('gaussian:het=2', 'trace:file.json') pass the
    # registry check on their head; bad heads are rejected.
    FLConfig(runtime="gaussian:het=2.0")
    FLConfig(runtime="trace:/some/file.json")
    with pytest.raises(ConfigError):
        FLConfig(runtime="uniform:lo=1,hi=2")


@pytest.mark.parametrize(
    "kwargs",
    [
        {"buffer_size": 0},
        {"staleness_exponent": -0.1},
    ],
)
def test_invalid_async_fields_rejected(kwargs):
    with pytest.raises(ConfigError):
        FLConfig(**kwargs)
