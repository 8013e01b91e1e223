"""Explicit cross-dtype checkpoint migration.

:func:`~repro.ckpt.provenance.check_resume_compatible` is strict about
``dtype``: a float64 checkpoint refuses to resume a float32 run and
vice versa, because silently mixing precisions produces subtly
different numbers.  Sometimes crossing is exactly what is wanted —
finish a long float64 run at float32 speed, or promote a float32
exploration to float64 for a final evaluation.  :func:`recast_checkpoint`
makes that an *explicit*, provenance-stamped migration: every
floating-point array in every section is cast to the target dtype and
the provenance is restamped for the target configuration, with a
``recast_from`` note recording the original stamp.

A recast resume is deterministic but **not** bit-identical to a run
trained natively at the target dtype from round zero — casting is lossy
in one direction and cannot reinvent low bits in the other.  The tool
exists so that trade-off is opted into, never stumbled into.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.ckpt.format import pack_tree, read_checkpoint, unpack_tree, write_checkpoint
from repro.ckpt.manager import CheckpointManager
from repro.ckpt.provenance import run_provenance
from repro.exceptions import CheckpointError


def recast_tree(tree, dtype: np.dtype):
    """Recursively cast every floating-point array in a packed-tree value.

    Integer, boolean and unsigned arrays (client ids, reported masks,
    RNG state words) pass through untouched — only floating payloads
    (model parameters, control variates, delta rows) change width.
    Python float scalars are dtype-free in JSON and stay as they are.
    """
    if isinstance(tree, np.ndarray):
        if np.issubdtype(tree.dtype, np.floating) and tree.dtype != dtype:
            return tree.astype(dtype)
        return tree
    if isinstance(tree, dict):
        return {key: recast_tree(value, dtype) for key, value in tree.items()}
    if isinstance(tree, (list, tuple)):
        return type(tree)(recast_tree(item, dtype) for item in tree)
    return tree


def recast_checkpoint(
    src: str | Path,
    dst: str | Path,
    *,
    config,
    algorithm: str | None = None,
) -> Path:
    """Rewrite checkpoint ``src`` as ``dst`` for the target ``config``.

    ``config`` is the configuration the *continued* run will use (its
    ``dtype`` is the cast target); ``algorithm`` defaults to the one the
    source checkpoint was written by.  The destination carries fresh
    provenance for the target config plus a ``recast_from`` copy of the
    original stamp, so the migration stays auditable.  Raises
    :class:`~repro.exceptions.CheckpointError` when source and target
    dtype are the same — a same-dtype copy hides a config mistake.
    """
    src, dst = Path(src), Path(dst)
    manifest, sections = read_checkpoint(src)
    meta = dict(manifest.get("meta", {}))
    stored = meta.get("provenance", {})
    if stored.get("dtype") == config.dtype:
        raise CheckpointError(
            f"{src.name} is already a {config.dtype} checkpoint; recast is "
            "for crossing dtypes — resume it directly"
        )
    target = np.dtype(config.dtype)
    source = np.dtype(stored.get("dtype", "float64"))
    recast_sections: dict[str, bytes] = {}
    for name, blob in sections.items():
        tree = recast_tree(unpack_tree(blob), target)
        if name == "ledger" and tree.get("dtype_bytes") == source.itemsize:
            # The wire width followed the dtype policy (not an explicit
            # override): migrate it so the continued run's ledger
            # accepts the snapshot.  Historical byte totals keep their
            # source-width accounting — a recast run's traffic mixes
            # widths by definition.
            tree["dtype_bytes"] = target.itemsize
        recast_sections[name] = pack_tree(tree)
    # The hyperparameters carry over only to the algorithm that wrote them.
    same_algorithm = algorithm in (None, stored.get("algorithm"))
    meta["provenance"] = run_provenance(
        config, stored.get("algorithm") if same_algorithm else algorithm,
        stored.get("hyperparameters") if same_algorithm else None,
    )
    meta["provenance"]["recast_from"] = stored
    # The stamp now describes the *target* run, so the round budget must
    # too (extending a run while recasting is legal — the target config
    # hash already covers the new budget).
    meta["rounds_total"] = int(config.rounds)
    dst.parent.mkdir(parents=True, exist_ok=True)
    return write_checkpoint(dst, meta, recast_sections)


def recast_latest(
    src_dir: str | Path,
    dst_dir: str | Path,
    *,
    config,
    algorithm: str | None = None,
) -> Path:
    """Recast the newest valid checkpoint in ``src_dir`` into ``dst_dir``.

    The destination keeps the source's round-indexed file name, so a run
    pointed at ``dst_dir`` with ``resume=True`` picks it up directly.
    """
    src_manager = CheckpointManager(src_dir)
    rounds = src_manager.checkpoint_rounds()
    for round_idx in reversed(rounds):
        src_path = src_manager.path_for(round_idx)
        try:
            read_checkpoint(src_path)
        except CheckpointError:
            continue
        dst_path = Path(dst_dir) / src_path.name
        return recast_checkpoint(
            src_path, dst_path, config=config, algorithm=algorithm
        )
    raise CheckpointError(f"no valid checkpoint to recast in {src_dir}")
