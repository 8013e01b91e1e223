"""Crash/resume edge cases: a torn newest checkpoint, an empty or a
finished directory, refused mismatches, and a real ``os._exit`` from
inside a round callback.  Whatever resumes must reproduce the
uninterrupted run exactly.  (Crash/resume == uninterrupted for every
algorithm, on workers, with error-feedback residuals and with faults
are rows of ``tests/test_engine_identity.py``.)
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
from tests.conftest import make_toy_federation
from tests.helpers import assert_equivalent_runs, run_with_workers, simulate_crash

ROUNDS = 6
CRASH_ROUND = 3  # rounds >= this lose their checkpoint


def _config(**overrides) -> FLConfig:
    base = dict(rounds=ROUNDS, local_steps=2, batch_size=8, lr=0.1, seed=31)
    base.update(overrides)
    return FLConfig(**base)


@pytest.fixture(scope="module")
def fed():
    return make_toy_federation(similarity=0.0)


def test_resume_rolls_back_past_corrupt_newest(fed, tmp_path):
    config = _config()
    baseline = run_with_workers("fedavg", {}, fed, config, num_workers=1)
    ckpt_dir = tmp_path / "ckpt"
    ckpt_config = config.with_updates(checkpoint_dir=str(ckpt_dir), checkpoint_keep=50)
    run_with_workers("fedavg", {}, fed, ckpt_config, num_workers=1)
    simulate_crash(ckpt_dir, CRASH_ROUND + 1, ROUNDS)
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
