"""Checkpoint directory management: naming, retention, rollback.

A :class:`CheckpointManager` owns one run's checkpoint directory.  Files
are named ``ckpt-<round:08d>.rck`` so lexicographic order is round
order; :meth:`save` writes crash-safely through
:func:`repro.ckpt.format.write_checkpoint` and prunes everything but the
newest ``keep`` checkpoints; :meth:`load_latest_valid` walks the
directory newest-first, skipping (with a warning) any checkpoint that
fails verification, so a torn or bit-rotted newest file rolls the run
back to the previous good one instead of killing it.
"""

from __future__ import annotations

import re
import warnings
from pathlib import Path

from repro.ckpt.format import read_checkpoint, read_manifest, write_checkpoint
from repro.exceptions import CheckpointError

_NAME_RE = re.compile(r"^ckpt-(\d{8})\.rck$")


class CheckpointManager:
    """Create, list, prune, and recover checkpoints in one directory.

    Args:
        directory: the run's checkpoint directory (created on first save).
        keep: retain at most this many checkpoints (the newest ones);
            older files are deleted after every successful save.
    """

    def __init__(self, directory: str | Path, keep: int = 3) -> None:
        if keep < 1:
            raise CheckpointError(f"keep must be >= 1, got {keep}")
        self.directory = Path(directory)
        self.keep = keep
        self._clean_stray_temporaries()

    def _clean_stray_temporaries(self) -> None:
        """Remove half-written ``*.tmp-*`` files a crashed writer left."""
        if not self.directory.is_dir():
            return
        for stray in self.directory.glob("ckpt-*.rck.tmp-*"):
            try:
                stray.unlink()
            except OSError:
                pass

    # -- naming -------------------------------------------------------------------
    def path_for(self, round_idx: int) -> Path:
        return self.directory / f"ckpt-{round_idx:08d}.rck"

    def checkpoint_rounds(self) -> list[int]:
        """Round indices with a checkpoint file, oldest first."""
        if not self.directory.is_dir():
            return []
        rounds = []
        for entry in self.directory.iterdir():
            match = _NAME_RE.match(entry.name)
            if match:
                rounds.append(int(match.group(1)))
        return sorted(rounds)

    # -- writing ------------------------------------------------------------------
    def save(self, round_idx: int, meta: dict, sections: dict) -> Path:
        """Persist one round's checkpoint and apply the retention policy.

        ``sections`` maps names to packed ``bytes`` or to piece lists
        (what :func:`~repro.ckpt.state.capture_run_state` returns)."""
        path = write_checkpoint(self.path_for(round_idx), meta, sections)
        self._prune()
        return path

    def _prune(self) -> None:
        rounds = self.checkpoint_rounds()
        for stale in rounds[: -self.keep] if len(rounds) > self.keep else []:
            try:
                self.path_for(stale).unlink()
            except OSError:
                pass

    # -- reading ------------------------------------------------------------------
    def load_latest_valid(self) -> tuple[dict, dict[str, bytes]] | None:
        """The newest checkpoint that passes full verification.

        Returns ``(manifest, sections)`` or ``None`` when the directory
        holds no valid checkpoint at all.  Corrupt files are reported
        with a :class:`RuntimeWarning` and skipped — the run rolls back
        to the newest checkpoint that still verifies.
        """
        for round_idx in reversed(self.checkpoint_rounds()):
            path = self.path_for(round_idx)
            try:
                return read_checkpoint(path)
            except CheckpointError as exc:
                warnings.warn(
                    f"skipping corrupt checkpoint {path.name}: {exc}",
                    RuntimeWarning,
                    stacklevel=2,
                )
        return None

    def latest_manifest(self) -> dict | None:
        """Manifest of the newest *valid* checkpoint (cheap probe)."""
        for round_idx in reversed(self.checkpoint_rounds()):
            try:
                return read_manifest(self.path_for(round_idx))
            except CheckpointError:
                continue
        return None
