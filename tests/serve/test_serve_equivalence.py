"""Serial/serve equivalence: a round served over real sockets must be
bit-identical to the in-process serial engine.

Every registered algorithm runs the same job twice — once serially,
once with ``execution='serve'`` (forked workers over an ephemeral
Unix-domain socket; TCP is covered separately) — and final parameters,
every History field except wall time, and per-round ledger totals must
match exactly.  Compression pipelines, partial participation,
checkpoint crash/resume (including a hard SIGKILL of the server
process) and serve<->sync checkpoint interchange ride the same harness.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.algorithms import ALGORITHMS
from repro.fl.config import FLConfig
from tests.helpers import assert_equivalent_runs, run_with_workers
from tests.serve.conftest import run_serve

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


def _config(**overrides) -> FLConfig:
    base = dict(rounds=3, local_steps=2, batch_size=8, lr=0.1, seed=21)
    base.update(overrides)
    return FLConfig(**base)


def test_matrix_covers_every_registered_algorithm():
    """A new algorithm must be added to the serve equivalence matrix."""
    assert {name for name, _, _ in MATRIX} == set(ALGORITHMS)


@pytest.mark.parametrize(
    "name,kwargs",
    [
        pytest.param(name, kwargs, id=name, marks=[pytest.mark.slow] if slow else [])
        for name, kwargs, slow in MATRIX
    ],
)
def test_serve_run_is_bit_identical_to_serial(fed, name, kwargs):
    config = _config()
    serial = run_with_workers(name, kwargs, fed, config, num_workers=1)
    served = run_serve(name, kwargs, fed, config)
    assert_equivalent_runs(serial, served)


@pytest.mark.parametrize("name,kwargs", [("fedavg", {}), ("scaffold", {}), ("rfedavg+", {"lam": 1e-3})])
def test_serve_over_tcp_is_bit_identical_to_serial(fed, name, kwargs):
    config = _config(seed=22)
    serial = run_with_workers(name, kwargs, fed, config, num_workers=1)
    served = run_serve(name, kwargs, fed, config, serve_addr="tcp:127.0.0.1:0")
    assert_equivalent_runs(serial, served)


@pytest.mark.parametrize(
    "overrides",
    [
        pytest.param({"compression": "topk:0.25"}, id="topk"),
        pytest.param({"compression": "topk:0.25|qsgd:8"}, id="topk-qsgd-ef"),
        pytest.param({"compression": "topk:0.5|sign"}, id="topk-sign"),
    ],
)
def test_serve_with_compression_is_bit_identical(fed, overrides):
    """Compressed uploads (error feedback included) survive the socket."""
    config = _config(seed=23, **overrides)
    serial = run_with_workers("fedavg", {}, fed, config, num_workers=1)
    served = run_serve("fedavg", {}, fed, config)
    assert_equivalent_runs(serial, served)


def test_serve_rfedavg_plus_sync_compression(fed):
    config = _config(
        seed=24, compression="topk:0.25|qsgd:8", sync_compression="qsgd:8"
    )
    serial = run_with_workers("rfedavg+", {"lam": 1e-3}, fed, config, num_workers=1)
    served = run_serve("rfedavg+", {"lam": 1e-3}, fed, config)
    assert_equivalent_runs(serial, served)


def test_serve_partial_participation(fed):
    config = _config(seed=25, sample_ratio=0.5, rounds=4)
    serial = run_with_workers("fedavg", {}, fed, config, num_workers=1)
    served = run_serve("fedavg", {}, fed, config)
    assert_equivalent_runs(serial, served)


def test_serve_more_workers_than_clients(fed):
    config = _config(seed=26)
    serial = run_with_workers("fedavg", {}, fed, config, num_workers=1)
    served = run_serve("fedavg", {}, fed, config, num_workers=6)
    assert_equivalent_runs(serial, served)


def test_serve_backpressure_one_byte_queue(fed):
    """A one-byte outbound budget serializes dispatch (one frame may
    always be queued) but must not change the result or deadlock."""
    config = _config(seed=27)
    serial = run_with_workers("fedavg", {}, fed, config, num_workers=1)
    served = run_serve("fedavg", {}, fed, config, serve_queue_bytes=1)
    assert_equivalent_runs(serial, served)


def test_serve_max_inflight_one(fed):
    config = _config(seed=28)
    serial = run_with_workers("scaffold", {}, fed, config, num_workers=1)
    served = run_serve("scaffold", {}, fed, config, serve_max_inflight=1)
    assert_equivalent_runs(serial, served)


# -- crash / resume ---------------------------------------------------------------

ROUNDS = 6
CRASH_ROUND = 3


def _crash_config(**overrides) -> FLConfig:
    base = dict(rounds=ROUNDS, local_steps=2, batch_size=8, lr=0.1, seed=31)
    base.update(overrides)
    return FLConfig(**base)


def _simulate_crash(ckpt_dir: Path) -> None:
    removed = 0
    for round_idx in range(CRASH_ROUND, ROUNDS):
        path = ckpt_dir / f"ckpt-{round_idx:08d}.rck"
        if path.exists():
            path.unlink()
            removed += 1
    assert removed > 0, "crash simulation deleted nothing — cadence changed?"


def test_serve_crash_resume_is_bit_identical(fed, tmp_path):
    config = _crash_config()
    baseline = run_with_workers("scaffold", {}, fed, config, num_workers=1)
    ckpt_config = config.with_updates(
        checkpoint_dir=str(tmp_path / "ckpt"), checkpoint_keep=50
    )
    run_serve("scaffold", {}, fed, ckpt_config)
    _simulate_crash(tmp_path / "ckpt")
    resumed = run_serve("scaffold", {}, fed, ckpt_config.with_updates(resume=True))
    assert_equivalent_runs(baseline, resumed)


def test_serve_and_sync_checkpoints_interchange(fed, tmp_path):
    """serve is execution-only: a sync run's checkpoints resume under
    serve (and the result still matches an uninterrupted serial run)."""
    config = _crash_config(seed=32)
    baseline = run_with_workers("fedavg", {}, fed, config, num_workers=1)
    ckpt_config = config.with_updates(
        checkpoint_dir=str(tmp_path / "ckpt"), checkpoint_keep=50
    )
    run_with_workers("fedavg", {}, fed, ckpt_config, num_workers=1)
    _simulate_crash(tmp_path / "ckpt")
    resumed = run_serve("fedavg", {}, fed, ckpt_config.with_updates(resume=True))
    assert_equivalent_runs(baseline, resumed)


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

    fed = make_toy_federation(similarity=0.0)
    config = FLConfig(
        rounds={rounds}, local_steps=2, batch_size=8, lr=0.1, seed=31,
        execution="serve", num_workers=2, serve_timeout=5.0,
        checkpoint_dir=sys.argv[1], checkpoint_keep=50,
    )

    def die_mid_run(record):
        if record.round_idx == {crash_round}:
            # SIGKILL ourselves: no cleanup, no shutdown frames — the
            # workers are left talking to a dead server.
            os.kill(os.getpid(), signal.SIGKILL)

    run_federated(
        make_algorithm("scaffold"), fed, tiny_model_fn(fed), config,
        callbacks=[die_mid_run],
    )
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
