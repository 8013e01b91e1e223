"""Provenance tests: config hashing invariants and resume refusal."""

from __future__ import annotations

import inspect
import json
from dataclasses import fields

import pytest

import repro
from repro.algorithms import ALGORITHMS, make_algorithm
from repro.ckpt.provenance import (
    check_resume_compatible,
    config_hash,
    run_provenance,
)
from repro.exceptions import CheckpointMismatchError
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
        "batch_size", "buffer_size", "buffer_timeout", "cloud_compression",
        "compression", "dispatch_cap", "dtype", "error_feedback", "eval_batch",
        "eval_every", "execution", "local_steps", "lr", "lr_schedule",
        "optimizer", "rounds", "runtime", "sample_ratio", "sampler", "seed",
        "staleness_exponent", "sync_compression", "topology", "wire_dtype_bytes",
    }


def test_config_hash_digests_are_pinned():
    # Recorded before the execution-only split moved into field metadata;
    # a checkpoint's stored hash must keep matching.
    assert config_hash(FLConfig()) == "b58641de8f2b8d88c5bae52a0c57ec96"
    assert config_hash(_config(
        num_workers=2, execution="serve", compression="topk:0.25|qsgd:8",
        sampler="reservoir", state_cap=4,
    )) == "acc3bbe60f5f11946484e129f84c7240"


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
