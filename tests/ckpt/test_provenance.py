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
