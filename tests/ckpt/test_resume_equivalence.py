"""Crash/resume equivalence: a resumed run is bit-identical to an
uninterrupted one.

The crash is simulated two ways: by deleting every checkpoint newer than
the crash point (as if the process died mid-round, after its last
successful checkpoint) and — for one hard case — by actually killing a
subprocess with ``os._exit`` from inside a round callback.  Either way,
resuming must reproduce the uninterrupted run exactly: final parameters,
every History field except wall time, and per-round ledger bytes.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.exceptions import CheckpointMismatchError
from repro.fl.config import FLConfig
from repro.fl.faults import FaultModel
from tests.conftest import make_toy_federation
from tests.helpers import assert_equivalent_runs, run_with_workers

# (name, constructor kwargs, slow?) — mirrors the parallel-equivalence matrix.
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

ROUNDS = 6
CRASH_ROUND = 3  # rounds >= this lose their checkpoint


def _config(**overrides) -> FLConfig:
    base = dict(rounds=ROUNDS, local_steps=2, batch_size=8, lr=0.1, seed=31)
    base.update(overrides)
    return FLConfig(**base)


@pytest.fixture(scope="module")
def fed():
    return make_toy_federation(similarity=0.0)


def _simulate_crash(ckpt_dir: Path, crash_round: int = CRASH_ROUND) -> None:
    """Drop every checkpoint from ``crash_round`` on, as a crash would."""
    removed = 0
    for round_idx in range(crash_round, ROUNDS):
        path = ckpt_dir / f"ckpt-{round_idx:08d}.rck"
        if path.exists():
            path.unlink()
            removed += 1
    assert removed > 0, "crash simulation deleted nothing — cadence changed?"


def _crash_and_resume(
    name,
    kwargs,
    fed,
    tmp_path,
    *,
    num_workers=1,
    executor="auto",
    decorate=None,
    config=None,
):
    """Uninterrupted baseline vs crash-at-CRASH_ROUND-then-resume."""
    config = config if config is not None else _config()
    baseline = run_with_workers(
        name, kwargs, fed, config, num_workers=num_workers,
        executor=executor, decorate=decorate,
    )
    ckpt_dir = tmp_path / "ckpt"
    ckpt_config = config.with_updates(
        checkpoint_dir=str(ckpt_dir), checkpoint_keep=50
    )
    run_with_workers(
        name, kwargs, fed, ckpt_config, num_workers=num_workers,
        executor=executor, decorate=decorate,
    )
    _simulate_crash(ckpt_dir)
    resumed = run_with_workers(
        name, kwargs, fed, ckpt_config.with_updates(resume=True),
        num_workers=num_workers, executor=executor, decorate=decorate,
    )
    assert_equivalent_runs(baseline, resumed)
    return baseline, resumed


@pytest.mark.parametrize(
    "name,kwargs",
    [
        pytest.param(name, kwargs, id=name, marks=[pytest.mark.slow] if slow else [])
        for name, kwargs, slow in MATRIX
    ],
)
def test_crash_resume_is_bit_identical(fed, name, kwargs, tmp_path):
    _crash_and_resume(name, kwargs, fed, tmp_path)


@pytest.mark.parametrize(
    "name,kwargs",
    [
        pytest.param("scaffold", {}, id="scaffold"),
        pytest.param(
            "rfedavg+", {"lam": 1e-3}, id="rfedavg+", marks=[pytest.mark.slow]
        ),
    ],
)
def test_crash_resume_under_parallel_wire(fed, name, kwargs, tmp_path):
    """Resume composes with the process executor and packed wire."""
    _crash_and_resume(
        name, kwargs, fed, tmp_path, num_workers=2, executor="process"
    )


@pytest.mark.parametrize(
    "name,kwargs,overrides",
    [
        pytest.param("fedavg", {}, {"compression": "topk:0.25|qsgd:8"}, id="fedavg-ef"),
        pytest.param(
            "rfedavg+",
            {"lam": 1e-3},
            {"compression": "topk:0.25|qsgd:8", "sync_compression": "qsgd:8"},
            id="rfedavg+-ef-sync",
        ),
    ],
)
def test_crash_resume_with_error_feedback_residuals(fed, name, kwargs, overrides, tmp_path):
    """Crash with non-empty error-feedback residuals, resume, bit-identical.

    By CRASH_ROUND every client has accumulated a non-zero residual, so
    this exercises the ``ef_residuals`` checkpoint segments (and, for
    rfedavg+, the second-synchronization model/delta residuals) rather
    than the trivially-empty-table path.
    """
    import numpy as np

    baseline, resumed = _crash_and_resume(
        name, kwargs, fed, tmp_path, config=_config(**overrides)
    )
    algorithm = resumed[0]
    assert algorithm._residuals is not None
    norms = [
        float(np.linalg.norm(algorithm._residuals.get(cid)))
        for cid in range(fed.num_clients)
    ]
    assert max(norms) > 0.0, "residuals never became non-trivial — weak test"


def test_crash_resume_with_faults(fed, tmp_path):
    """The fault model's RNG stream and counters survive a resume."""
    models = []

    def decorate(algorithm):
        fault = FaultModel(dropout_prob=0.4, seed=9)
        models.append(fault)
        algorithm.with_faults(fault)

    baseline, resumed = _crash_and_resume(
        "scaffold", {}, fed, tmp_path, decorate=decorate
    )
    uninterrupted, _checkpointed, restored = models
    assert restored.dropped_total == uninterrupted.dropped_total
    assert uninterrupted.dropped_total > 0


def test_resume_rolls_back_past_corrupt_newest(fed, tmp_path):
    config = _config()
    baseline = run_with_workers("fedavg", {}, fed, config, num_workers=1)
    ckpt_dir = tmp_path / "ckpt"
    ckpt_config = config.with_updates(checkpoint_dir=str(ckpt_dir), checkpoint_keep=50)
    run_with_workers("fedavg", {}, fed, ckpt_config, num_workers=1)
    _simulate_crash(ckpt_dir, crash_round=CRASH_ROUND + 1)
    # The newest surviving checkpoint is itself torn.
    torn = ckpt_dir / f"ckpt-{CRASH_ROUND:08d}.rck"
    torn.write_bytes(torn.read_bytes()[:-10])
    with pytest.warns(RuntimeWarning, match="corrupt checkpoint"):
        resumed = run_with_workers(
            "fedavg", {}, fed, ckpt_config.with_updates(resume=True), num_workers=1
        )
    assert_equivalent_runs(baseline, resumed)


def test_resume_with_no_checkpoints_is_a_fresh_run(fed, tmp_path):
    config = _config()
    baseline = run_with_workers("fedavg", {}, fed, config, num_workers=1)
    ckpt_dir = tmp_path / "empty"
    ckpt_dir.mkdir()
    resumed = run_with_workers(
        "fedavg", {}, fed,
        config.with_updates(checkpoint_dir=str(ckpt_dir), resume=True),
        num_workers=1,
    )
    assert_equivalent_runs(baseline, resumed)
    assert list(ckpt_dir.glob("ckpt-*.rck"))  # and it checkpointed as it went


def test_resume_of_completed_run_reproduces_history(fed, tmp_path):
    config = _config(checkpoint_dir=str(tmp_path / "ckpt"), checkpoint_keep=50)
    full = run_with_workers("fedavg", {}, fed, config, num_workers=1)
    again = run_with_workers(
        "fedavg", {}, fed, config.with_updates(resume=True), num_workers=1
    )
    assert_equivalent_runs(full, again)


def test_resume_refuses_mismatched_configuration(fed, tmp_path):
    short = _config(rounds=3, checkpoint_dir=str(tmp_path / "ckpt"))
    run_with_workers("fedavg", {}, fed, short, num_workers=1)
    with pytest.raises(CheckpointMismatchError, match="config_hash"):
        run_with_workers(
            "fedavg", {}, fed,
            _config(rounds=ROUNDS, checkpoint_dir=str(tmp_path / "ckpt"), resume=True),
            num_workers=1,
        )


def test_resume_refuses_a_different_compressor(fed, tmp_path):
    """Upload compression is set only through the config, so the hash
    sees it: a quantized run's checkpoint does not resume uncompressed."""
    ckpt_dir = str(tmp_path / "ckpt")
    run_with_workers(
        "fedavg", {}, fed,
        _config(rounds=3, checkpoint_dir=ckpt_dir, compression="quantize:8"),
        num_workers=1,
    )
    with pytest.raises(CheckpointMismatchError, match="config_hash"):
        run_with_workers(
            "fedavg", {}, fed,
            _config(rounds=3, checkpoint_dir=ckpt_dir, compression="none", resume=True),
            num_workers=1,
        )


def test_resume_refuses_different_algorithm(fed, tmp_path):
    config = _config(checkpoint_dir=str(tmp_path / "ckpt"))
    run_with_workers("fedavg", {}, fed, config, num_workers=1)
    with pytest.raises(CheckpointMismatchError, match="algorithm"):
        run_with_workers(
            "scaffold", {}, fed, config.with_updates(resume=True), num_workers=1
        )


_CRASH_SCRIPT = textwrap.dedent(
    """
    import os
    import sys

    sys.path.insert(0, "src")
    sys.path.insert(0, ".")

    from tests.conftest import make_toy_federation
    from tests.helpers import tiny_model_fn
    from repro.algorithms import make_algorithm
    from repro.fl.config import FLConfig
    from repro.fl.trainer import run_federated

    fed = make_toy_federation(similarity=0.0)
    config = FLConfig(
        rounds={rounds}, local_steps=2, batch_size=8, lr=0.1, seed=31,
        checkpoint_dir=sys.argv[1], checkpoint_keep=50,
    )

    def die_mid_run(record):
        if record.round_idx == {crash_round}:
            os._exit(17)

    run_federated(
        make_algorithm("scaffold"), fed, tiny_model_fn(fed), config,
        callbacks=[die_mid_run],
    )
    os._exit(0)
    """
)


@pytest.mark.slow
def test_hard_process_kill_then_resume(fed, tmp_path):
    """os._exit mid-run leaves a resumable directory behind.

    Round callbacks fire before the round's checkpoint is written, so the
    kill lands between the round-``CRASH_ROUND - 1`` checkpoint and the
    round-``CRASH_ROUND`` one — a genuinely torn run, not a tidy stop.
    """
    repo_root = Path(__file__).resolve().parents[2]
    script = tmp_path / "crash_run.py"
    script.write_text(_CRASH_SCRIPT.format(rounds=ROUNDS, crash_round=CRASH_ROUND))
    ckpt_dir = tmp_path / "ckpt"
    proc = subprocess.run(
        [sys.executable, str(script), str(ckpt_dir)],
        cwd=repo_root,
        env={**os.environ, "PYTHONPATH": "src"},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 17, proc.stderr
    rounds_on_disk = sorted(
        int(p.stem.split("-")[1]) for p in ckpt_dir.glob("ckpt-*.rck")
    )
    assert rounds_on_disk == list(range(CRASH_ROUND)), rounds_on_disk

    baseline = run_with_workers("scaffold", {}, fed, _config(), num_workers=1)
    resumed = run_with_workers(
        "scaffold", {}, fed,
        _config(checkpoint_dir=str(ckpt_dir), checkpoint_keep=50, resume=True),
        num_workers=1,
    )
    assert_equivalent_runs(baseline, resumed)
