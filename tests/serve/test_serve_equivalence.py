"""A served run survives a SIGKILL of the server process: resumed from
the checkpoints it left behind, the run is the uninterrupted serial run.
(Served == serial over TCP, with compressed uploads, across a crash and
from a serial run's checkpoints are rows of
``tests/test_engine_identity.py``.)
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.fl.config import FLConfig
from tests.helpers import assert_equivalent_runs, run_with_workers
from tests.serve.conftest import run_serve

ROUNDS = 6
CRASH_ROUND = 3


def _crash_config(**overrides) -> FLConfig:
    base = dict(rounds=ROUNDS, local_steps=2, batch_size=8, lr=0.1, seed=31)
    base.update(overrides)
    return FLConfig(**base)


_CRASH_SCRIPT = textwrap.dedent(
    """
    import os
    import signal
    import sys

    sys.path.insert(0, "src")
    sys.path.insert(0, ".")

    from tests.conftest import make_toy_federation
    from tests.helpers import tiny_model_fn
    from repro.algorithms import make_algorithm
    from repro.fl.config import FLConfig
    from repro.fl.trainer import run_federated
    from repro.serve.server import ServeExecutor

    fed = make_toy_federation(similarity=0.0)
    config = FLConfig(
        rounds={rounds}, local_steps=2, batch_size=8, lr=0.1, seed=31,
        execution="serve", num_workers=2,
        checkpoint_dir=sys.argv[1], checkpoint_keep=50,
    )

    def die_mid_run(record):
        if record.round_idx == {crash_round}:
            # SIGKILL ourselves: no cleanup, no shutdown frames — the
            # workers are left talking to a dead server.
            os.kill(os.getpid(), signal.SIGKILL)

    # A short worker timeout: orphaned workers exit soon after the kill.
    algorithm = make_algorithm("scaffold").with_executor(ServeExecutor(2, timeout=5.0))
    run_federated(algorithm, fed, tiny_model_fn(fed), config, callbacks=[die_mid_run])
    os._exit(0)
    """
)


@pytest.mark.slow
def test_serve_server_sigkill_then_resume(fed, tmp_path):
    """SIGKILL the serving process mid-run; resume must be bit-identical.

    Round callbacks fire before the round's checkpoint is written, so
    the kill lands between checkpoints — a genuinely torn run.  The
    orphaned workers must also exit on their own (they notice the
    parent died on their next receive timeout) rather than hold the
    subprocess pipes open forever.
    """
    repo_root = Path(__file__).resolve().parents[2]
    script = tmp_path / "crash_serve.py"
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
    assert proc.returncode == -9, proc.stderr  # killed by SIGKILL
    rounds_on_disk = sorted(
        int(p.stem.split("-")[1]) for p in ckpt_dir.glob("ckpt-*.rck")
    )
    assert rounds_on_disk == list(range(CRASH_ROUND)), rounds_on_disk

    baseline = run_with_workers("scaffold", {}, fed, _crash_config(), num_workers=1)
    resumed = run_serve(
        "scaffold",
        {},
        fed,
        _crash_config(checkpoint_dir=str(ckpt_dir), checkpoint_keep=50, resume=True),
    )
    assert_equivalent_runs(baseline, resumed)
