"""Crash-safe checkpoint/resume with bit-identical deterministic replay.

The subsystem has three layers:

* :mod:`repro.ckpt.format` — the RCK1 container: atomic temp-file +
  fsync + rename writes, a self-describing JSON manifest with
  per-section content digests (the format version names the digest:
  SHA-256 in the version-2 files it writes, blake2b-128 in version-1
  files it still reads), and a tree codec that stores numpy arrays
  dtype-true over the RFW1 wire format.
* :mod:`repro.ckpt.manager` — per-run directory management: retention
  of the newest K checkpoints and corruption-tolerant recovery that
  rolls back to the newest valid file.
* :mod:`repro.ckpt.state` — complete-run-state capture/restore: global
  model, per-algorithm server state, RNG streams, communication ledger,
  history, obs metrics, and fault-model state.

Checkpointing is driven by three :class:`~repro.fl.config.FLConfig`
fields (``checkpoint_dir``, ``checkpoint_every``, ``resume``) threaded
through the trainer, :func:`repro.run_experiment`, the CLI, and the
experiment runner/sweeps; see ``docs/checkpointing.md``.
"""

from repro.ckpt.format import (
    pack_tree,
    pack_tree_parts,
    read_checkpoint,
    read_manifest,
    unpack_tree,
    write_checkpoint,
)
from repro.ckpt.manager import CheckpointManager
from repro.ckpt.provenance import check_resume_compatible, config_hash, run_provenance
from repro.ckpt.recast import recast_checkpoint, recast_latest
from repro.ckpt.state import capture_run_state, restore_run_state
from repro.exceptions import CheckpointError, CheckpointMismatchError

__all__ = [
    "CheckpointManager",
    "CheckpointError",
    "CheckpointMismatchError",
    "capture_run_state",
    "restore_run_state",
    "check_resume_compatible",
    "config_hash",
    "run_provenance",
    "pack_tree",
    "pack_tree_parts",
    "unpack_tree",
    "read_checkpoint",
    "read_manifest",
    "recast_checkpoint",
    "recast_latest",
    "write_checkpoint",
]
