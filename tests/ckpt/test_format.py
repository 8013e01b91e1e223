"""RCK1 container tests: tree codec round-trips and corruption detection.

The format's contract is binary: a checkpoint either reads back exactly
what was written (arrays dtype-true, big ints intact, tuples typed) or
raises :class:`~repro.exceptions.CheckpointError` — never a silently
wrong value.  That holds for every format version the reader knows:
files are written at version 2 (SHA-256 section digests) and the
version-1 files under ``data/`` (blake2b-128) still verify.
"""

from __future__ import annotations

import hashlib
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.ckpt import format as ckpt_format
from repro.ckpt.format import (
    MAGIC,
    SECTION_DIGESTS,
    pack_tree,
    read_checkpoint,
    read_manifest,
    unpack_tree,
    write_checkpoint,
)
from repro.ckpt.recast import recast_checkpoint
from repro.exceptions import CheckpointError
from repro.fl.config import FLConfig

DATA = Path(__file__).parent / "data"
PARENT_FILES = sorted(DATA.glob("parent-*.rck"))


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
    """Fixed ``(meta, name -> tree)`` inputs; the digest of the file
    written for them is :data:`GOLDEN_FILE`, and of its payload region
    :data:`GOLDEN_PAYLOAD`."""
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


# Re-recorded when section digests became SHA-256 (format version 2):
# only the manifest changed; GOLDEN_PAYLOAD pins that the bytes after it
# did not.
GOLDEN_FILE = "0bb81c338902e1faf872458574f12440"

# blake2b-128 of the golden file's payload region (the bytes after the
# header and manifest), recorded from the version-1 writer.
GOLDEN_PAYLOAD = "3ee0082191fc4c04503adc29832fe9cd"


def _file_digest(path) -> str:
    return hashlib.blake2b(path.read_bytes(), digest_size=16).hexdigest()


def _payload_region(path) -> bytes:
    data = path.read_bytes()
    _magic, manifest_len, _hash = ckpt_format._HEADER.unpack_from(data)
    return data[ckpt_format._HEADER.size + manifest_len :]


def test_file_from_bytes_sections_equals_the_parent_commits(tmp_path):
    meta, trees = golden_checkpoint()
    path = write_checkpoint(
        tmp_path / "golden.rck", meta, {k: pack_tree(t) for k, t in trees.items()}
    )
    assert _file_digest(path) == GOLDEN_FILE


def test_payload_region_equals_the_version_1_writers(tmp_path):
    meta, trees = golden_checkpoint()
    pieces = {k: ckpt_format.pack_tree_parts(t) for k, t in trees.items()}
    path = write_checkpoint(tmp_path / "golden.rck", meta, pieces)
    digest = hashlib.blake2b(_payload_region(path), digest_size=16).hexdigest()
    assert digest == GOLDEN_PAYLOAD


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


# -- format versions ----------------------------------------------------------------


def test_new_file_is_version_2_with_sha256_entries(tmp_path):
    meta, trees = golden_checkpoint()
    path = write_checkpoint(
        tmp_path / "v2.rck", meta, {k: ckpt_format.pack_tree_parts(t) for k, t in trees.items()}
    )
    manifest, sections = read_checkpoint(path)
    assert manifest["format_version"] == ckpt_format.FORMAT_VERSION == 2
    for entry in manifest["sections"]:
        assert "blake2b" not in entry
        assert entry["sha256"] == hashlib.sha256(sections[entry["name"]]).hexdigest()


@pytest.mark.parametrize("source", PARENT_FILES, ids=lambda p: p.name)
def test_version_1_parent_file_verifies_with_blake2b(source):
    manifest, sections = read_checkpoint(source)
    assert manifest["format_version"] == 1
    for entry in manifest["sections"]:
        assert "sha256" not in entry
        digest = hashlib.blake2b(sections[entry["name"]], digest_size=16).hexdigest()
        assert entry["blake2b"] == digest


@pytest.mark.parametrize("source", PARENT_FILES, ids=lambda p: p.name)
def test_version_1_section_bit_flip_is_detected(tmp_path, source):
    """The flip sits in the last section, so every section before it
    must verify first."""
    entry = read_manifest(source)["sections"][-1]
    data = bytearray(source.read_bytes())
    data[entry["offset"] + entry["length"] // 2] ^= 0x10
    path = tmp_path / source.name
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointError, match=f"{entry['name']}.*hash mismatch"):
        read_checkpoint(path)


def test_unknown_version_is_refused(tmp_path, monkeypatch):
    monkeypatch.setitem(SECTION_DIGESTS, 3, SECTION_DIGESTS[2])
    monkeypatch.setattr(ckpt_format, "FORMAT_VERSION", 3)
    path = _write(tmp_path)
    monkeypatch.undo()
    with pytest.raises(CheckpointError, match="unsupported format version 3"):
        read_manifest(path)
    with pytest.raises(CheckpointError, match="unsupported format version 3"):
        read_checkpoint(path)


def test_version_2_entry_with_only_blake2b_is_refused(tmp_path, monkeypatch):
    """A valid blake2b-128 digest does not stand in for the SHA-256 one
    version 2 names."""
    monkeypatch.setitem(SECTION_DIGESTS, 2, SECTION_DIGESTS[1])
    path = _write(tmp_path)
    monkeypatch.undo()
    manifest = read_manifest(path)
    assert manifest["format_version"] == 2
    assert all("blake2b" in e and "sha256" not in e for e in manifest["sections"])
    with pytest.raises(CheckpointError, match="has no sha256 digest"):
        read_checkpoint(path)


def test_recast_of_a_version_1_file_writes_version_2(tmp_path):
    source = DATA / "parent-rfedavgplus-00000001.rck"
    assert read_manifest(source)["meta"]["provenance"]["dtype"] == "float64"
    shutil.copy(source, tmp_path / source.name)
    dst = recast_checkpoint(
        tmp_path / source.name, tmp_path / "out" / source.name,
        config=FLConfig(rounds=4, dtype="float32"),
    )
    manifest, sections = read_checkpoint(dst)
    assert manifest["format_version"] == 2
    assert manifest["meta"]["provenance"]["recast_from"]["dtype"] == "float64"
    assert set(sections) == {entry["name"] for entry in read_manifest(source)["sections"]}
    for entry in manifest["sections"]:
        assert set(entry) == {"name", "offset", "length", "sha256"}
