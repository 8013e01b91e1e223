"""CheckpointManager tests: naming, retention, rollback, stray cleanup."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ckpt.format import pack_tree, read_manifest, unpack_tree
from repro.ckpt.manager import CheckpointManager
from repro.exceptions import CheckpointError


def _save(manager, round_idx, value=None):
    payload = np.arange(4.0) if value is None else value
    return manager.save(
        round_idx,
        {"round_idx": round_idx},
        {"model": pack_tree({"params": payload})},
    )


def test_naming_is_zero_padded_round_index(tmp_path):
    manager = CheckpointManager(tmp_path)
    assert manager.path_for(3).name == "ckpt-00000003.rck"
    assert manager.path_for(12345678).name == "ckpt-12345678.rck"


def test_keep_must_be_positive(tmp_path):
    with pytest.raises(CheckpointError):
        CheckpointManager(tmp_path, keep=0)


def test_save_creates_directory_and_lists_rounds(tmp_path):
    manager = CheckpointManager(tmp_path / "run", keep=5)
    for r in (0, 2, 1):
        _save(manager, r)
    assert manager.checkpoint_rounds() == [0, 1, 2]


def test_retention_keeps_newest(tmp_path):
    manager = CheckpointManager(tmp_path, keep=2)
    for r in range(5):
        _save(manager, r)
    assert manager.checkpoint_rounds() == [3, 4]


def test_load_latest_valid_returns_newest(tmp_path):
    manager = CheckpointManager(tmp_path, keep=10)
    for r in range(3):
        _save(manager, r, value=np.full(3, float(r)))
    manifest, sections = manager.load_latest_valid()
    assert manifest["meta"]["round_idx"] == 2
    np.testing.assert_array_equal(
        unpack_tree(sections["model"])["params"], np.full(3, 2.0)
    )


def test_corrupt_newest_rolls_back_with_warning(tmp_path):
    manager = CheckpointManager(tmp_path, keep=10)
    for r in range(3):
        _save(manager, r)
    newest = manager.path_for(2)
    data = bytearray(newest.read_bytes())
    data[-1] ^= 0xFF
    newest.write_bytes(bytes(data))
    with pytest.warns(RuntimeWarning, match="ckpt-00000002"):
        manifest, _ = manager.load_latest_valid()
    assert manifest["meta"]["round_idx"] == 1


def test_empty_directory_yields_none(tmp_path):
    manager = CheckpointManager(tmp_path / "nonexistent")
    assert manager.load_latest_valid() is None
    assert manager.checkpoint_rounds() == []


def test_all_corrupt_yields_none(tmp_path):
    manager = CheckpointManager(tmp_path)
    _save(manager, 0)
    manager.path_for(0).write_bytes(b"garbage")
    with pytest.warns(RuntimeWarning):
        assert manager.load_latest_valid() is None


def test_stray_temporaries_are_cleaned_on_construction(tmp_path):
    stray = tmp_path / "ckpt-00000007.rck.tmp-1234"
    stray.write_bytes(b"half-written")
    CheckpointManager(tmp_path)
    assert not stray.exists()


def test_latest_manifest_is_cheap_probe(tmp_path):
    manager = CheckpointManager(tmp_path)
    _save(manager, 4)
    manifest = read_manifest(manager.path_for(4))
    assert manifest["meta"]["round_idx"] == 4
