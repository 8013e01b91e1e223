"""Run provenance: who produced an artifact, under which configuration.

Every checkpoint (and, when artifacts are persisted, every run artifact
directory) is stamped with a small provenance dict — library version,
a content hash of the *numerically relevant* configuration, the
algorithm and its hyperparameters (λ, μ, q, a privacy mechanism's σ,
...; they live on the algorithm, not in the config), the active dtype
policy, and the
execution engine — so a resumed run can refuse a
checkpoint written under a different experiment instead of silently
producing subtly different numbers.

The config hash deliberately **excludes** the fields
:class:`~repro.fl.config.FLConfig` marks ``execution_only``, which are
guaranteed not to change results: worker count and executor (the
parallel engine is bit-identical to serial by contract), the
checkpointing knobs themselves (changing the cadence or directory of
checkpoints must not invalidate them), the storage knobs of histories
and per-client tables (``history_mode``, ``state_cap``, ``state_dir``:
where records and rows live, never what they are) and the serve
transport knobs.  Everything else — rounds, local steps, batch size,
learning rate, seed, dtype, wire accounting, ``sampler`` and
``dispatch_cap`` (they change which cohorts and updates exist) —
participates.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields

import repro


def config_hash(config) -> str:
    """blake2b-128 hex digest of the numerically relevant config fields."""
    relevant = {}
    for field in fields(config):
        if field.metadata.get("execution_only"):
            continue
        value = getattr(config, field.name)
        if field.name == "execution" and value == "serve":
            # Serve mode is the sync protocol over sockets, bit-identical
            # by contract — serve and sync checkpoints interchange.
            value = "sync"
        if field.name == "lr_schedule" and value is not None:
            # Schedules are plain objects; hash their type + attributes.
            value = {
                "type": type(value).__name__,
                "attrs": {
                    k: v for k, v in sorted(vars(value).items())
                    if isinstance(v, (int, float, str, bool))
                },
            }
        relevant[field.name] = value
    payload = json.dumps(relevant, sort_keys=True, default=repr).encode("utf-8")
    return hashlib.blake2b(payload, digest_size=16).hexdigest()


def run_provenance(
    config, algorithm_name: str | None = None, hyperparameters: dict | None = None
) -> dict:
    """The provenance stamp for one run under ``config``, by an algorithm
    with ``hyperparameters`` (its
    :meth:`~repro.algorithms.base.FederatedAlgorithm.hyperparameters`)."""
    return {
        "repro_version": repro.__version__,
        "config_hash": config_hash(config),
        "algorithm": algorithm_name,
        "hyperparameters": hyperparameters,
        "seed": config.seed,
        "dtype": config.dtype,
        "executor": config.executor,
        "num_workers": config.num_workers,
    }


# Provenance keys that must match exactly for a resume to be sound.
_STRICT_KEYS = ("config_hash", "algorithm", "dtype")


def check_resume_compatible(stored: dict, current: dict) -> None:
    """Refuse to resume from a checkpoint of a different experiment.

    Raises :class:`~repro.exceptions.CheckpointMismatchError` naming each
    differing field and what to do about it, an algorithm hyperparameter
    as ``hyperparameters.<name>``.  A hyperparameter is checked where
    both stamps carry it: a stamp without hyperparameters, or without a
    key (written before it was stamped, as ``privacy.sigma``), is not
    checked on it.
    Execution-engine fields
    (workers / executor) may differ freely — the parallel
    engine is bit-identical to serial — and a library version difference
    is reported as part of the message but is not by itself fatal (the
    config hash catches semantic drift).
    """
    from repro.exceptions import CheckpointMismatchError

    problems = []
    for key in _STRICT_KEYS:
        if stored.get(key) != current.get(key):
            problems.append(f"  {key}: checkpoint={stored.get(key)!r} run={current.get(key)!r}")
    stored_hp, current_hp = stored.get("hyperparameters"), current.get("hyperparameters")
    if stored_hp is not None and current_hp is not None:
        for key in sorted(stored_hp.keys() & current_hp.keys()):
            if stored_hp[key] != current_hp[key]:
                problems.append(
                    f"  hyperparameters.{key}: checkpoint={stored_hp.get(key)!r} "
                    f"run={current_hp.get(key)!r}"
                )
    if problems:
        version_note = ""
        if stored.get("repro_version") != current.get("repro_version"):
            version_note = (
                f" (checkpoint written by repro {stored.get('repro_version')}, "
                f"this is {current.get('repro_version')})"
            )
        raise CheckpointMismatchError(
            "refusing to resume: the checkpoint was written by a different "
            "run configuration" + version_note + ":\n"
            + "\n".join(problems)
            + "\nEither rerun with the original configuration, point "
            "checkpoint_dir at a fresh directory, or disable resume to "
            "start over."
        )
