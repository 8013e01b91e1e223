"""RCK1 container tests: tree codec round-trips and corruption detection.

The format's contract is binary: a checkpoint either reads back exactly
what was written (arrays dtype-true, big ints intact, tuples typed) or
raises :class:`~repro.exceptions.CheckpointError` — never a silently
wrong value.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.ckpt import format as ckpt_format
from repro.ckpt.format import (
    MAGIC,
    pack_tree,
    read_checkpoint,
    read_manifest,
    unpack_tree,
    write_checkpoint,
)
from repro.exceptions import CheckpointError


# -- tree codec --------------------------------------------------------------------


def test_tree_round_trips_arrays_dtype_true():
    tree = {
        "f64": np.linspace(0, 1, 7),
        "f32": np.ones(3, dtype=np.float32),
        "i64": np.arange(4),
        "i32": np.arange(4, dtype=np.int32),
        "bool": np.array([True, False, True]),
        "u8": np.arange(5, dtype=np.uint8),
        "mat": np.arange(6.0).reshape(2, 3),
    }
    out = unpack_tree(pack_tree(tree))
    for key, value in tree.items():
        np.testing.assert_array_equal(out[key], value)
        assert out[key].dtype == value.dtype, key


def test_tree_arrays_come_back_as_read_only_views():
    """Decoded arrays alias the section buffer; the one copy a restore
    needs is made by the consumer that keeps the value."""
    blob = pack_tree({"a": np.arange(3.0), "nested": [{"b": np.ones((2, 2))}]})
    out = unpack_tree(blob)
    for arr in (out["a"], out["nested"][0]["b"]):
        assert not arr.flags.writeable and not arr.flags.owndata
        assert np.shares_memory(arr, np.frombuffer(blob, dtype=np.uint8))
    with pytest.raises(ValueError):
        out["a"][0] = 1.0
    kept = np.array(out["a"], copy=True)
    kept[0] = 1.0  # a consumer's copy is its own


def test_tree_round_trips_scalars_bytes_tuples_and_big_ints():
    tree = {
        "none": None,
        "str": "hello",
        "int": -7,
        "float": 2.5,
        "bool": True,
        "bytes": b"\x00\xff\x7f",
        "tuple": (1, "two", (3.0, None)),
        # PCG64 bit-generator state carries 128-bit integers.
        "big": 2**127 + 12345,
        "inf": float("inf"),
        "list": [1, [2, [3]]],
        "np_scalar": np.int64(42),
    }
    out = unpack_tree(pack_tree(tree))
    assert out["none"] is None
    assert out["str"] == "hello"
    assert out["int"] == -7 and out["float"] == 2.5 and out["bool"] is True
    assert out["bytes"] == b"\x00\xff\x7f"
    assert out["tuple"] == (1, "two", (3.0, None))
    assert isinstance(out["tuple"], tuple) and isinstance(out["tuple"][2], tuple)
    assert out["big"] == 2**127 + 12345
    assert out["inf"] == float("inf")
    assert out["list"] == [1, [2, [3]]]
    assert out["np_scalar"] == 42


def test_tree_round_trips_rng_state():
    gen = np.random.default_rng([3, 0xF1])
    gen.random(100)
    state = gen.bit_generator.state
    restored = unpack_tree(pack_tree({"rng": state}))["rng"]
    other = np.random.default_rng(0)
    other.bit_generator.state = restored
    np.testing.assert_array_equal(gen.random(16), other.random(16))


def test_tree_rejects_reserved_keys_and_unknown_types():
    with pytest.raises(CheckpointError):
        pack_tree({"__nd__": 1})
    with pytest.raises(CheckpointError):
        pack_tree({"bad": object()})
    with pytest.raises(CheckpointError):
        pack_tree({1: "non-string key"})  # type: ignore[dict-item]


# -- file container ----------------------------------------------------------------


def _write(tmp_path, meta=None, sections=None):
    path = tmp_path / "ckpt-00000001.rck"
    write_checkpoint(
        path,
        meta if meta is not None else {"round_idx": 1},
        sections
        if sections is not None
        else {
            "model": pack_tree({"params": np.arange(5.0)}),
            "rng": pack_tree({"state": 123}),
        },
    )
    return path


def test_write_read_round_trip(tmp_path):
    path = _write(tmp_path)
    manifest, sections = read_checkpoint(path)
    assert manifest["meta"]["round_idx"] == 1
    assert set(sections) == {"model", "rng"}
    np.testing.assert_array_equal(
        unpack_tree(sections["model"])["params"], np.arange(5.0)
    )
    assert read_manifest(path)["meta"] == manifest["meta"]


def test_write_leaves_no_temporaries(tmp_path):
    _write(tmp_path)
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt-00000001.rck"]


@pytest.mark.parametrize("offset_from_end", [1, 40])
def test_section_bit_flip_is_detected(tmp_path, offset_from_end):
    path = _write(tmp_path)
    data = bytearray(path.read_bytes())
    data[-offset_from_end] ^= 0x40
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointError, match="hash mismatch"):
        read_checkpoint(path)


def test_manifest_bit_flip_is_detected(tmp_path):
    path = _write(tmp_path)
    data = bytearray(path.read_bytes())
    data[30] ^= 0x01  # inside the JSON manifest
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointError, match="manifest"):
        read_checkpoint(path)


def test_truncation_is_detected(tmp_path):
    path = _write(tmp_path)
    data = path.read_bytes()
    for cut in (3, 20, len(data) - 5):
        path.write_bytes(data[:cut])
        with pytest.raises(CheckpointError):
            read_checkpoint(path)


def test_bad_magic_is_detected(tmp_path):
    path = _write(tmp_path)
    data = bytearray(path.read_bytes())
    data[: len(MAGIC)] = b"NOPE\n"
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointError, match="magic"):
        read_checkpoint(path)


def test_missing_file_raises_checkpoint_error(tmp_path):
    with pytest.raises(CheckpointError):
        read_checkpoint(tmp_path / "nope.rck")


def test_overwrite_is_atomic_under_same_name(tmp_path):
    path = _write(tmp_path)
    write_checkpoint(path, {"round_idx": 2}, {"s": pack_tree({"v": 9})})
    manifest, sections = read_checkpoint(path)
    assert manifest["meta"]["round_idx"] == 2
    assert unpack_tree(sections["s"])["v"] == 9


# -- the file from pieces -----------------------------------------------------------


def golden_checkpoint() -> tuple[dict, dict[str, dict]]:
    """Fixed ``(meta, name -> tree)`` inputs; the digest of the file the
    PARENT commit wrote for them is :data:`GOLDEN_FILE`."""
    gen = np.random.default_rng(1818)
    reported = gen.random(40) < 0.6
    ids = np.flatnonzero(reported).astype(np.int64)
    trees = {
        "model": {"global_params": gen.normal(size=1201)},
        "algorithm": {
            "ef_residuals": {
                "delta_ids": ids,
                "delta_rows": gen.normal(size=(len(ids), 1201)),
                "delta_reported": reported,
            },
            "velocity": gen.normal(size=1201).astype(np.float32),
            "fingerprint": b"\x00\x01\xfe",
            "pair": (1, 2.5, None),
            "odd_u8": np.arange(4099, dtype=np.uint8),
        },
        "rng": {"round_rng": np.random.default_rng([3, 0xF1]).bit_generator.state},
        "ledger": {"dtype_bytes": 8, "round_totals": [{"up": 10, "down": 20}]},
    }
    meta = {"round_idx": 3, "rounds_total": 12, "provenance": {"seed": 3, "dtype": "float64"}}
    return meta, trees


GOLDEN_FILE = "be968251dca018003e4bb177467a560e"


def _file_digest(path) -> str:
    return hashlib.blake2b(path.read_bytes(), digest_size=16).hexdigest()


def test_file_from_bytes_sections_equals_the_parent_commits(tmp_path):
    meta, trees = golden_checkpoint()
    path = write_checkpoint(
        tmp_path / "golden.rck", meta, {k: pack_tree(t) for k, t in trees.items()}
    )
    assert _file_digest(path) == GOLDEN_FILE


def test_file_from_pieces_is_byte_identical(tmp_path):
    """Both section forms stay legal, alone or mixed, and write one file."""
    meta, trees = golden_checkpoint()
    pieces = {k: ckpt_format.pack_tree_parts(t) for k, t in trees.items()}
    for name, parts in pieces.items():
        assert b"".join(parts) == pack_tree(trees[name])
    from_pieces = write_checkpoint(tmp_path / "pieces.rck", meta, pieces)
    assert _file_digest(from_pieces) == GOLDEN_FILE
    mixed = dict(pieces, model=pack_tree(trees["model"]), rng=bytearray(pack_tree(trees["rng"])))
    assert _file_digest(write_checkpoint(tmp_path / "mixed.rck", meta, mixed)) == GOLDEN_FILE
    manifest, sections = read_checkpoint(from_pieces)
    assert manifest["meta"] == meta
    rows = unpack_tree(sections["algorithm"])["ef_residuals"]["delta_rows"]
    np.testing.assert_array_equal(rows, trees["algorithm"]["ef_residuals"]["delta_rows"])
