"""Checkpoints do not cross topologies: a flat run's checkpoint does not
resume hierarchical, nor the other way round.  (``hier:1:1`` == flat,
``hier:R:P`` on workers == serial and hierarchical crash/resume are rows
of ``tests/test_engine_identity.py``.)
"""

from __future__ import annotations

import pytest

from repro.exceptions import CheckpointError, CheckpointMismatchError
from repro.fl.config import FLConfig
from tests.conftest import make_toy_federation
from tests.helpers import run_with_workers

def _config(**overrides) -> FLConfig:
    base = dict(rounds=6, local_steps=2, batch_size=8, lr=0.1, seed=11)
    base.update(overrides)
    return FLConfig(**base)


@pytest.fixture(scope="module")
def fed():
    return make_toy_federation(similarity=0.0)


def test_hier_resume_refuses_flat_checkpoint(fed, tmp_path):
    flat_config = _config(checkpoint_dir=str(tmp_path / "ckpt"), checkpoint_keep=50)
    run_with_workers("fedavg", {}, fed, flat_config, num_workers=1)
    with pytest.raises((CheckpointError, CheckpointMismatchError)):
        run_with_workers(
            "fedavg", {}, fed,
            flat_config.with_updates(resume=True, topology="hier:2:2"),
            num_workers=1,
        )


def test_flat_resume_refuses_hier_checkpoint(fed, tmp_path):
    hier_config = _config(
        topology="hier:2:2", checkpoint_dir=str(tmp_path / "ckpt"), checkpoint_keep=50
    )
    run_with_workers("fedavg", {}, fed, hier_config, num_workers=1)
    with pytest.raises((CheckpointError, CheckpointMismatchError)):
        run_with_workers(
            "fedavg", {}, fed,
            hier_config.with_updates(resume=True, topology="flat"),
            num_workers=1,
        )
