"""Hierarchical == flat equivalence matrix (the house invariant).

``topology='hier:1:1'`` — one region, cloud sync every round, where the
sync short-circuits entirely — must reproduce the flat engine **bit
for bit** for every registered algorithm: parameters, every History
field except wall time, and the per-round ledger.  That identity is
what makes ``topology`` a deployment knob rather than a numerical
change, and it is the gate ``benchmarks/bench_hierarchy.py`` sits
behind.

Also covered here: hier serial == hier wire-parallel at R > 1 (the
region-parallel speedup path changes nothing numerically), crash-resume
bit-identity of hierarchical checkpoints, and the refusal of
cross-topology resumes.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms import ALGORITHMS
from repro.exceptions import CheckpointError, CheckpointMismatchError
from repro.fl.config import FLConfig
from tests.conftest import make_toy_federation
from tests.helpers import assert_equivalent_runs, run_with_workers

WORKERS = int(os.environ.get("REPRO_EQUIV_WORKERS", "4"))

# (name, constructor kwargs, slow?) — one row per registered algorithm.
MATRIX = [
    ("fedavg", {}, False),
    ("fedavgm", {}, False),
    ("fednova", {}, False),
    ("fedprox", {"mu": 0.1}, False),
    ("moon", {"mu": 0.5}, True),
    ("scaffold", {}, False),
    ("qfedavg", {"q": 1.0}, False),
    ("rfedavg", {"lam": 1e-3}, True),
    ("rfedavg+", {"lam": 1e-3}, False),
    ("rfedavg_exact", {"lam": 1e-3}, True),
]

# Algorithms safe to aggregate per region (R > 1); rfedavg_exact is
# excluded by contract (region_aggregation_safe = False).
REGION_SAFE = [row for row in MATRIX if row[0] != "rfedavg_exact"]


def _config(**overrides) -> FLConfig:
    base = dict(rounds=3, local_steps=2, batch_size=8, lr=0.1, seed=11)
    base.update(overrides)
    return FLConfig(**base)


@pytest.fixture(scope="module")
def fed():
    return make_toy_federation(similarity=0.0)


def test_matrix_covers_every_registered_algorithm():
    """A new algorithm must be added to the hierarchy equivalence matrix."""
    assert {name for name, _, _ in MATRIX} == set(ALGORITHMS)


@pytest.mark.parametrize(
    "name,kwargs",
    [
        pytest.param(name, kwargs, id=name, marks=[pytest.mark.slow] if slow else [])
        for name, kwargs, slow in MATRIX
    ],
)
def test_hier_one_one_is_bit_identical_to_flat(fed, name, kwargs):
    flat = run_with_workers(name, kwargs, fed, _config(), num_workers=1)
    hier = run_with_workers(
        name, kwargs, fed, _config(topology="hier:1:1"), num_workers=1
    )
    assert_equivalent_runs(flat, hier)


def test_hier_one_one_identity_with_partial_participation(fed):
    """Cohort sampling consumes the selection RNG identically."""
    config = _config(sample_ratio=0.5, rounds=4)
    flat = run_with_workers("fedavg", {}, fed, config, num_workers=1)
    hier = run_with_workers(
        "fedavg", {}, fed, config.with_updates(topology="hier:1:1"), num_workers=1
    )
    assert_equivalent_runs(flat, hier)


@pytest.mark.parametrize(
    "name,kwargs",
    [
        pytest.param(name, kwargs, id=name, marks=[pytest.mark.slow] if slow else [])
        for name, kwargs, slow in REGION_SAFE
    ],
)
def test_region_parallel_matches_region_serial(fed, name, kwargs):
    """R > 1 on the process pool == R > 1 serial: the
    concurrent region execution is a scheduler swap, not a numerical
    change."""
    config = _config(topology="hier:2:2")
    serial = run_with_workers(name, kwargs, fed, config, num_workers=1)
    parallel = run_with_workers(
        name, kwargs, fed, config,
        num_workers=WORKERS, executor="process",
    )
    assert_equivalent_runs(serial, parallel)


# -- crash/resume --------------------------------------------------------------

ROUNDS = 6
CRASH_ROUND = 3


def _simulate_crash(ckpt_dir: Path, crash_round: int = CRASH_ROUND) -> None:
    removed = 0
    for round_idx in range(crash_round, ROUNDS):
        path = ckpt_dir / f"ckpt-{round_idx:08d}.rck"
        if path.exists():
            path.unlink()
            removed += 1
    assert removed > 0, "crash simulation deleted nothing — cadence changed?"


@pytest.mark.parametrize("topology", ["hier:1:1", "hier:2:2", "hier:2:3"])
def test_hier_crash_resume_is_bit_identical(fed, tmp_path, topology):
    config = _config(rounds=ROUNDS, topology=topology)
    baseline = run_with_workers("fedavg", {}, fed, config, num_workers=1)
    ckpt_dir = tmp_path / "ckpt"
    ckpt_config = config.with_updates(
        checkpoint_dir=str(ckpt_dir), checkpoint_keep=50
    )
    run_with_workers("fedavg", {}, fed, ckpt_config, num_workers=1)
    _simulate_crash(ckpt_dir)
    resumed = run_with_workers(
        "fedavg", {}, fed, ckpt_config.with_updates(resume=True), num_workers=1
    )
    assert_equivalent_runs(baseline, resumed)


def test_hier_resume_refuses_flat_checkpoint(fed, tmp_path):
    flat_config = _config(
        rounds=ROUNDS, checkpoint_dir=str(tmp_path / "ckpt"), checkpoint_keep=50
    )
    run_with_workers("fedavg", {}, fed, flat_config, num_workers=1)
    with pytest.raises((CheckpointError, CheckpointMismatchError)):
        run_with_workers(
            "fedavg", {}, fed,
            flat_config.with_updates(resume=True, topology="hier:2:2"),
            num_workers=1,
        )


def test_flat_resume_refuses_hier_checkpoint(fed, tmp_path):
    hier_config = _config(
        rounds=ROUNDS, topology="hier:2:2",
        checkpoint_dir=str(tmp_path / "ckpt"), checkpoint_keep=50,
    )
    run_with_workers("fedavg", {}, fed, hier_config, num_workers=1)
    with pytest.raises((CheckpointError, CheckpointMismatchError)):
        run_with_workers(
            "fedavg", {}, fed,
            hier_config.with_updates(resume=True, topology="flat"),
            num_workers=1,
        )


def test_cloud_compression_participates_in_resume_identity(fed, tmp_path):
    """A compressed cloud hop is numerically relevant state: resume is
    bit-identical under it, and the compressed run differs from dense."""
    config = _config(rounds=ROUNDS, topology="hier:2:2", cloud_compression="topk:0.25")
    baseline = run_with_workers("fedavg", {}, fed, config, num_workers=1)
    dense = run_with_workers(
        "fedavg", {}, fed, config.with_updates(cloud_compression="none"), num_workers=1
    )
    assert not np.array_equal(baseline[0].global_params, dense[0].global_params)
    ckpt_dir = tmp_path / "ckpt"
    ckpt_config = config.with_updates(checkpoint_dir=str(ckpt_dir), checkpoint_keep=50)
    run_with_workers("fedavg", {}, fed, ckpt_config, num_workers=1)
    _simulate_crash(ckpt_dir)
    resumed = run_with_workers(
        "fedavg", {}, fed, ckpt_config.with_updates(resume=True), num_workers=1
    )
    assert_equivalent_runs(baseline, resumed)
