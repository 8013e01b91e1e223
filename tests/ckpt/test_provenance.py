"""Provenance tests: config hashing invariants and resume refusal."""

from __future__ import annotations

import inspect
import json
from dataclasses import fields

import numpy as np
import pytest

import repro
import repro.cli as cli
from repro.algorithms import ALGORITHMS, FedAvg, make_algorithm
from repro.ckpt.provenance import (
    check_resume_compatible,
    config_hash,
    run_provenance,
)
from repro.exceptions import CheckpointMismatchError, ConfigError
from repro.experiments.facade import preset_config
from repro.fl.config import FLConfig


def _config(**kwargs):
    base = dict(rounds=3, local_steps=2, batch_size=8, lr=0.1, seed=31)
    base.update(kwargs)
    return FLConfig(**base)


def test_hash_ignores_execution_only_fields(tmp_path):
    base = _config()
    varied = _config(
        num_workers=4,
        executor="process",
        checkpoint_dir=str(tmp_path),
        checkpoint_every=2,
        checkpoint_keep=7,
    )
    assert config_hash(base) == config_hash(varied)
    # resume alone needs checkpoint_dir to validate, hence the pairing.
    resumed = _config(checkpoint_dir=str(tmp_path), resume=True)
    assert config_hash(base) == config_hash(resumed)


def test_execution_only_marks_match_the_hashed_field_lists():
    # The split the hash was defined by when it lived in a list of names
    # next to config_hash; FLConfig's field metadata must reproduce it.
    unhashed = {f.name for f in fields(FLConfig) if f.metadata.get("execution_only")}
    hashed = {f.name for f in fields(FLConfig)} - unhashed
    assert unhashed == {
        "checkpoint_dir", "checkpoint_every", "checkpoint_keep", "executor",
        "history_mode", "num_workers", "resume", "serve_addr", "state_cap",
        "state_dir", "stream_dir",
    }
    assert hashed == {
        "batch_size", "buffer_size", "cloud_compression", "compression",
        "dispatch_cap", "dtype", "error_feedback", "eval_every", "execution",
        "local_steps", "lr", "lr_schedule", "optimizer", "rounds", "runtime",
        "sample_ratio", "sampler", "seed", "staleness_exponent",
        "sync_compression", "topology",
    }


def test_config_hash_digests_are_pinned():
    # Recorded before the execution-only split moved into field metadata;
    # a checkpoint's stored hash must keep matching.
    assert config_hash(FLConfig()) == "b58641de8f2b8d88c5bae52a0c57ec96"
    assert config_hash(_config(
        num_workers=2, execution="serve", compression="topk:0.25|qsgd:8",
        sampler="reservoir", state_cap=4,
    )) == "acc3bbe60f5f11946484e129f84c7240"


# The documented commands: CI's four parent-checkpoint resume legs, the
# async smoke, the two-worker async run, the hier:2:2 run and the five
# presets.  Digests recorded before three unset FLConfig fields were
# retired (provenance.RETIRED_FIELDS); checkpoints these commands wrote
# must keep resuming.
_RESUME_LEG = ["run", "--dataset", "synth_mnist", "--clients", "6", "--rounds", "6",
               "--local-steps", "2", "--batch-size", "8", "--scale", "0.25",
               "--checkpoint-every", "1", "--checkpoint-dir", "ck"]
_SMOKE = ["run", "--dataset", "synth_mnist", "--algorithm", "rfedavg+",
          "--clients", "8", "--rounds", "5", "--eval-every", "5"]
_LATENCY = ["--execution", "async", "--runtime", "gaussian:het=1.0"]
DOCUMENTED_COMMANDS = {
    "resume-rfedavg+": (
        _RESUME_LEG + ["--algorithm", "rfedavg+", "--compression", "topk:0.25|qsgd:8"],
        "2cbbd5ce911aedc6a58b24ff314dd378",
    ),
    "resume-scaffold": (
        _RESUME_LEG + ["--algorithm", "scaffold", "--sample-ratio", "0.5"],
        "086aad6e451c27a8424f8f442b5d6362",
    ),
    "resume-moon": (
        _RESUME_LEG + ["--algorithm", "moon", "--sample-ratio", "0.5"],
        "086aad6e451c27a8424f8f442b5d6362",
    ),
    "resume-async": (
        _RESUME_LEG + ["--algorithm", "rfedavg+", *_LATENCY, "--buffer-size", "2"],
        "b8e190819e19e023557734c236bba1ed",
    ),
    "async-smoke": (
        _SMOKE + [*_LATENCY, "--buffer-size", "6"],
        "9580bde495ef258739d4f3caeaf74d12",
    ),
    "async-two-workers": (
        _SMOKE + [*_LATENCY, "--buffer-size", "3", "--executor", "process", "--workers", "2"],
        "ea8100848c73fe5f5b6bd15a864a628a",
    ),
    "hier-2-2": (_SMOKE + ["--topology", "hier:2:2"], "553ca550de661c38f74a3a29ddf97a57"),
    "preset-quickstart": (["preset", "quickstart"], "1932c62e6d2e69a60375896a6988ca7c"),
    "preset-cifar-noniid": (["preset", "cifar-noniid"], "bb854f124a2f15a8c8474f1cc2f610ea"),
    "preset-sent140-lstm": (["preset", "sent140-lstm"], "4c22ce2173485570361cc643ad8d543e"),
    "preset-device-scale": (["preset", "device-scale"], "2dc779443343aa285f01f45fea12357b"),
    "preset-femnist-device": (
        ["preset", "femnist-device"], "66d5339edb91ddce860d972962946cb9",
    ),
}


class _Built(Exception):
    """Carries the hash of the config a command built, instead of running it."""


@pytest.mark.parametrize("name", sorted(DOCUMENTED_COMMANDS))
def test_documented_command_config_hashes_are_pinned(monkeypatch, name):
    argv, expected = DOCUMENTED_COMMANDS[name]

    def built(preset, *, seed, **kwargs):
        raise _Built(config_hash(preset_config(preset, seed)))

    monkeypatch.setattr(cli, "run_preset", built)
    with pytest.raises(_Built) as excinfo:
        cli.main(argv)
    assert excinfo.value.args[0] == expected


@pytest.mark.parametrize(
    "field,value",
    [("rounds", 9), ("local_steps", 5), ("lr", 0.2), ("seed", 99), ("dtype", "float32")],
)
def test_hash_varies_on_numeric_fields(field, value):
    assert config_hash(_config()) != config_hash(_config(**{field: value}))


def test_run_provenance_contents():
    prov = run_provenance(_config(), "scaffold")
    assert prov["algorithm"] == "scaffold"
    assert prov["seed"] == 31
    assert prov["dtype"] == _config().dtype
    assert prov["repro_version"] == repro.__version__
    assert prov["config_hash"] == config_hash(_config())


def test_compatible_provenance_passes():
    prov = run_provenance(_config(), "fedavg")
    check_resume_compatible(dict(prov), dict(prov))
    # Execution engine may differ freely.
    other = run_provenance(_config(num_workers=2, executor="process"), "fedavg")
    check_resume_compatible(prov, other)


def test_mismatch_is_refused_with_actionable_message():
    stored = run_provenance(_config(), "fedavg")
    current = run_provenance(_config(rounds=9, lr=0.5), "scaffold")
    with pytest.raises(CheckpointMismatchError) as excinfo:
        check_resume_compatible(stored, current)
    message = str(excinfo.value)
    assert "config_hash" in message
    assert "algorithm" in message
    assert "'fedavg'" in message and "'scaffold'" in message
    # The message must tell the user what to do next.
    assert "fresh directory" in message


def test_hyperparameters_are_stamped_and_checked_by_name():
    stamped = make_algorithm("fedprox", mu=0.1).hyperparameters()
    stored = run_provenance(_config(), "fedprox", stamped)
    assert stored["hyperparameters"] == {"mu": 0.1}
    assert stored["config_hash"] == config_hash(_config())
    check_resume_compatible(stored, run_provenance(_config(), "fedprox", dict(stamped)))
    current = run_provenance(_config(), "fedprox", {"mu": 1.0})
    with pytest.raises(CheckpointMismatchError) as excinfo:
        check_resume_compatible(stored, current)
    message = str(excinfo.value)
    assert "hyperparameters.mu: checkpoint=0.1 run=1.0" in message
    assert "config_hash" not in message


def test_a_stamp_without_hyperparameters_still_resumes():
    """Checkpoints and grid markers written before hyperparameters were
    stamped resume under any: there is nothing to check them against."""
    current = run_provenance(_config(), "rfedavg+", {"lam": 10.0})
    old = dict(current)
    del old["hyperparameters"]
    check_resume_compatible(old, current)


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_every_algorithm_stamps_its_scalar_constructor_arguments(name):
    algorithm = make_algorithm(name)
    params = inspect.signature(type(algorithm).__init__).parameters
    stamped = algorithm.hyperparameters()
    assert set(stamped) <= set(params)
    for key, value in stamped.items():
        assert value == params[key].default
    assert json.loads(json.dumps(stamped)) == stamped


@pytest.mark.parametrize(
    "steps_fn",
    [lambda round_idx, client_id: 1, max, np.array([1, 2]), object()],
    ids=["lambda", "builtin", "array", "object"],
)
def test_an_argument_that_cannot_describe_itself_is_refused(steps_fn):
    class _StepFnFedAvg(FedAvg):
        def __init__(self, steps_fn=None) -> None:
            super().__init__()
            self.steps_fn = steps_fn

    assert _StepFnFedAvg().hyperparameters() == {"steps_fn": None}
    with pytest.raises(ConfigError, match="_StepFnFedAvg: argument 'steps_fn'"):
        _StepFnFedAvg(steps_fn).hyperparameters()


def test_version_difference_is_reported_but_only_on_real_mismatch():
    stored = run_provenance(_config(), "fedavg")
    stored["repro_version"] = "0.0.1"
    # Same config hash: version alone does not refuse.
    check_resume_compatible(stored, run_provenance(_config(), "fedavg"))
    # Real mismatch: the version note rides along.
    with pytest.raises(CheckpointMismatchError, match="0.0.1"):
        check_resume_compatible(stored, run_provenance(_config(seed=1), "fedavg"))


def test_a_privacy_mechanism_is_stamped_by_its_fields():
    from repro.core.privacy import GaussianDeltaMechanism

    def stamp(privacy):
        algorithm = make_algorithm("rfedavg+", lam=0.01, privacy=privacy)
        return run_provenance(_config(), "rfedavg+", algorithm.hyperparameters())

    stored = stamp(GaussianDeltaMechanism(0.1))
    assert stored["hyperparameters"] == {
        "lam": 0.01, "privacy": "GaussianDeltaMechanism",
        "privacy.sigma": 0.1, "privacy.clip_norm": 1.0,
    }
    assert stored["config_hash"] == config_hash(_config())
    check_resume_compatible(stored, stamp(GaussianDeltaMechanism(0.1)))
    with pytest.raises(CheckpointMismatchError) as excinfo:
        check_resume_compatible(stored, stamp(GaussianDeltaMechanism(10.0)))
    assert "hyperparameters.privacy.sigma: checkpoint=0.1 run=10.0" in str(excinfo.value)
    with pytest.raises(CheckpointMismatchError, match="privacy.clip_norm"):
        check_resume_compatible(stored, stamp(GaussianDeltaMechanism(0.1, clip_norm=2.0)))
    # Switching the mechanism off (or on) is a mismatch too.
    with pytest.raises(CheckpointMismatchError) as excinfo:
        check_resume_compatible(stored, stamp(None))
    assert "hyperparameters.privacy: checkpoint='GaussianDeltaMechanism' run=None" in str(
        excinfo.value
    )


def test_a_stamp_without_a_key_still_resumes():
    """A stamp written before a key was stamped (λ only, as stamps were
    before a privacy mechanism's fields were) is checked on what both
    stamps carry."""
    from repro.core.privacy import GaussianDeltaMechanism

    algorithm = make_algorithm("rfedavg+", lam=0.01, privacy=GaussianDeltaMechanism(10.0))
    current = run_provenance(_config(), "rfedavg+", algorithm.hyperparameters())
    check_resume_compatible(run_provenance(_config(), "rfedavg+", {"lam": 0.01}), current)
    with pytest.raises(CheckpointMismatchError, match="hyperparameters.lam"):
        check_resume_compatible(run_provenance(_config(), "rfedavg+", {"lam": 0.1}), current)


def test_resume_under_another_privacy_sigma_is_refused(tmp_path):
    """σ changes every privatized delta: a crashed rfedavg+ run resumed
    under another Gaussian mechanism must be refused by name instead of
    finishing as a two-σ hybrid."""
    from repro.core.privacy import GaussianDeltaMechanism
    from repro.experiments.presets import build_image_federation
    from repro.fl.trainer import run_federated
    from tests.helpers import tiny_model_fn

    fed = build_image_federation(
        "synth_mnist", num_clients=4, num_train=160, num_test=40, image_size=9
    )
    ckpt = tmp_path / "ck"
    config = _config(rounds=3, checkpoint_dir=str(ckpt), resume=True)

    def run(sigma):
        algorithm = make_algorithm(
            "rfedavg+", lam=0.01, privacy=GaussianDeltaMechanism(sigma)
        )
        return run_federated(algorithm, fed, tiny_model_fn(fed), config)

    run(0.1)
    (ckpt / "ckpt-00000002.rck").unlink()
    with pytest.raises(CheckpointMismatchError) as excinfo:
        run(10.0)
    message = str(excinfo.value)
    assert "hyperparameters.privacy.sigma: checkpoint=0.1 run=10.0" in message
    assert "config_hash" not in message
    run(0.1)  # the original mechanism still resumes
