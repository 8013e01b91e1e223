"""Crash-safe, self-describing checkpoint container format (RCK1).

A checkpoint is one file holding a small JSON manifest plus named binary
sections, laid out so that *any* torn, truncated, or bit-flipped write is
detected at read time and treated as "this checkpoint does not exist"
rather than as silent corruption:

    offset 0   magic            b"RCK1\\n"
           5   manifest length  u32 LE
           9   manifest hash    16 bytes (blake2b-128 of the manifest)
          25   manifest         UTF-8 JSON
           -   section payloads, contiguous, in manifest order

The manifest is self-describing: a format version, free-form ``meta``
(round index, provenance), and a section table where every entry carries
the section's name, byte offset, length, and the content digest its
format version names (:data:`SECTION_DIGESTS`; version 2 is written,
versions 1 and 2 are read).  :func:`read_checkpoint` verifies the magic,
the manifest hash, and every section digest before returning anything;
any failure raises :class:`~repro.exceptions.CheckpointError`.

Writes are crash-safe the classic way: the full file is written to a
temporary sibling, flushed and fsynced, then atomically renamed over the
final path (and the directory fsynced, best effort).  A crash at any
point leaves either the old file, the new file, or a stray ``*.tmp-*``
sibling — never a half-written checkpoint under the real name.

Section payloads reuse the RFW1 wire format (:mod:`repro.fl.wire`)
through :func:`pack_tree` / :func:`unpack_tree`, which round-trip an
arbitrary JSON-able tree whose leaves may additionally be numpy arrays
or raw ``bytes`` (files older commits wrote carry some).
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import struct
from pathlib import Path

import numpy as np

from repro.core.delta import RowBlocks
from repro.exceptions import CheckpointError, WireError
from repro.fl import wire

MAGIC = b"RCK1\n"
FORMAT_VERSION = 2

_HEADER = struct.Struct("<5sI16s")  # magic, manifest length, manifest blake2b-128

_blake2b_128 = functools.partial(hashlib.blake2b, digest_size=16)

# format version -> (section-table key, digest constructor).  Version 2's
# SHA-256 hashes ~2.5x faster with SHA extensions (docs/checkpointing.md).
SECTION_DIGESTS = {
    1: ("blake2b", _blake2b_128),
    2: ("sha256", hashlib.sha256),
}

_ARRAY_KEY = "__nd__"
_BYTES_KEY = "__hex__"
_TUPLE_KEY = "__tuple__"


def _digest(pieces, new=_blake2b_128) -> bytes:
    """``new()``'s digest of the concatenation of ``pieces``, never formed."""
    digest = new()
    for piece in pieces:
        digest.update(piece)
    return digest.digest()


# -- tree <-> bytes -----------------------------------------------------------------
#
# The two walkers are module-level functions that take their accumulator
# as an argument, not closures over it: a recursive closure is a
# reference cycle (function -> cell -> function) that only a gen-2
# collection frees, and until then it keeps every array the call touched
# alive — a save's 16 MB of table rows, a whole read blob.


def _encode(node, arrays: dict[str, np.ndarray]):
    if isinstance(node, (np.ndarray, RowBlocks)):
        name = f"a{len(arrays)}"
        arrays[name] = node
        return {_ARRAY_KEY: name}
    if isinstance(node, (bytes, bytearray)):
        return {_BYTES_KEY: bytes(node).hex()}
    if isinstance(node, dict):
        out = {}
        for key, value in node.items():
            if not isinstance(key, str):
                raise CheckpointError(f"tree keys must be str, got {key!r}")
            if key in (_ARRAY_KEY, _BYTES_KEY, _TUPLE_KEY):
                raise CheckpointError(f"reserved tree key {key!r}")
            out[key] = _encode(value, arrays)
        return out
    if isinstance(node, tuple):
        return {_TUPLE_KEY: [_encode(v, arrays) for v in node]}
    if isinstance(node, list):
        return [_encode(v, arrays) for v in node]
    if isinstance(node, (np.integer,)):
        return int(node)
    if isinstance(node, (np.floating,)):
        return float(node)
    if isinstance(node, (np.bool_,)):
        return bool(node)
    if node is None or isinstance(node, (str, int, float, bool)):
        return node
    raise CheckpointError(f"cannot checkpoint value of type {type(node).__name__}")


def _decode(node, segments: dict):
    if isinstance(node, dict):
        if _ARRAY_KEY in node:
            name = node[_ARRAY_KEY]
            if name not in segments:
                raise CheckpointError(f"checkpoint section missing array {name!r}")
            return segments[name]
        if _BYTES_KEY in node:
            return bytes.fromhex(node[_BYTES_KEY])
        if _TUPLE_KEY in node:
            return tuple(_decode(v, segments) for v in node[_TUPLE_KEY])
        return {key: _decode(value, segments) for key, value in node.items()}
    if isinstance(node, list):
        return [_decode(v, segments) for v in node]
    return node


def pack_tree_parts(tree: dict) -> list[memoryview]:
    """Encode a nested dict of JSON-able values, numpy arrays and bytes
    as the pieces of one section (see :func:`repro.fl.wire.pack_parts`).

    Arrays are stored dtype-true in RFW1 segments (no base64 bloat, no
    pickle); everything else rides a JSON skeleton with ``{"__nd__": i}``
    / ``{"__hex__": ...}`` markers at the array / bytes leaves.

    **Aliasing contract.**  Large arrays are not copied: their pieces
    are views of the arrays in ``tree``, i.e. of live run state when the
    tree came from ``checkpoint_state()``.  The pieces must reach
    :func:`write_checkpoint` before that state changes again — capture
    and save are one synchronous step between two rounds.
    """
    arrays: dict[str, np.ndarray] = {}
    skeleton = _encode(tree, arrays)
    payload = json.dumps(skeleton, separators=(",", ":")).encode("utf-8")
    segments: dict[str, object] = {"__json__": np.frombuffer(payload, dtype=np.uint8)}
    segments.update(arrays)
    try:
        return wire.pack_parts("generic", segments)[1]
    except WireError as exc:
        raise CheckpointError(f"unpackable checkpoint section: {exc}") from exc


def pack_tree(tree: dict) -> bytes:
    """:func:`pack_tree_parts`, joined into one ``bytes`` section."""
    return b"".join(pack_tree_parts(tree))


def unpack_tree(buf: bytes) -> dict:
    """Inverse of :func:`pack_tree`.

    Arrays come back as **read-only views** into ``buf``.  A restore
    path copies a value exactly once, where it adopts it
    (``np.array(value, copy=True)``, ``np.copyto``, a row assignment),
    and ``buf`` is free as soon as the last view is dropped.
    """
    try:
        kind, segments = wire.unpack(buf)
    except WireError as exc:
        raise CheckpointError(f"undecodable checkpoint section: {exc}") from exc
    if kind != "generic" or "__json__" not in segments:
        raise CheckpointError("checkpoint section missing its JSON skeleton")
    skeleton = json.loads(bytes(segments["__json__"]).decode("utf-8"))
    return _decode(skeleton, segments)


# -- file container -----------------------------------------------------------------


def _section_pieces(section) -> list:
    """A section is one bytes-like blob or a sequence of byte pieces."""
    if isinstance(section, (bytes, bytearray, memoryview)):
        return [section]
    return list(section)


def write_checkpoint(path: str | Path, meta: dict, sections: dict) -> Path:
    """Atomically persist ``sections`` under ``path``.

    A section is packed ``bytes`` (:func:`pack_tree`) or the pieces of
    the same bytes (:func:`pack_tree_parts`); the file is identical
    either way.  Pieces are hashed one by one and then written one by
    one, so a section that aliases a large table reaches the disk
    without an intermediate copy.

    The file appears under its final name only after the full content has
    been flushed and fsynced; concurrent writers cannot interleave
    because the temporary name embeds the writer's pid.
    """
    path = Path(path)
    table = []
    digest_key, new_digest = SECTION_DIGESTS[FORMAT_VERSION]
    blobs = [_section_pieces(section) for section in sections.values()]
    # Two-pass: manifest size depends on offsets, offsets depend on the
    # manifest size.  Build the table with zero offsets first to measure,
    # then shift by the fixed header + manifest length.
    for name, pieces in zip(sections, blobs):
        table.append(
            {
                "name": name,
                "offset": 0,
                "length": sum(memoryview(piece).nbytes for piece in pieces),
                digest_key: _digest(pieces, new_digest).hex(),
            }
        )

    def render(entries) -> bytes:
        manifest = {
            "format_version": FORMAT_VERSION,
            "meta": meta,
            "sections": entries,
        }
        return json.dumps(manifest, sort_keys=True).encode("utf-8")

    # Offsets are fixed-width decimal-agnostic integers in JSON; sizing
    # can shift as offsets grow, so iterate until stable (2 passes in
    # practice, bounded defensively).
    manifest_bytes = render(table)
    for _ in range(8):
        cursor = _HEADER.size + len(manifest_bytes)
        for entry in table:
            entry["offset"] = cursor
            cursor += entry["length"]
        rendered = render(table)
        if len(rendered) == len(manifest_bytes):
            manifest_bytes = rendered
            break
        manifest_bytes = rendered
    else:  # pragma: no cover - would need pathological manifest growth
        raise CheckpointError("manifest layout did not converge")

    tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        with open(tmp, "wb") as handle:
            handle.write(_HEADER.pack(MAGIC, len(manifest_bytes), _digest([manifest_bytes])))
            handle.write(manifest_bytes)
            for pieces in blobs:
                for piece in pieces:
                    handle.write(piece)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        if tmp.exists():  # a failed write leaves no stray temporaries
            try:
                tmp.unlink()
            except OSError:
                pass
    try:  # make the rename itself durable; not all filesystems allow this
        dir_fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError:
        pass
    return path


def read_manifest(path: str | Path) -> dict:
    """Read and verify only the manifest (cheap validity/metadata probe)."""
    path = Path(path)
    try:
        with open(path, "rb") as handle:
            header = handle.read(_HEADER.size)
            if len(header) < _HEADER.size:
                raise CheckpointError(f"{path.name}: truncated header")
            magic, manifest_len, manifest_hash = _HEADER.unpack(header)
            if magic != MAGIC:
                raise CheckpointError(f"{path.name}: bad magic {magic!r}")
            manifest_bytes = handle.read(manifest_len)
    except OSError as exc:
        raise CheckpointError(f"{path}: unreadable ({exc})") from exc
    if len(manifest_bytes) < manifest_len:
        raise CheckpointError(f"{path.name}: truncated manifest")
    if _digest([manifest_bytes]) != manifest_hash:
        raise CheckpointError(f"{path.name}: manifest hash mismatch")
    try:
        manifest = json.loads(manifest_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path.name}: undecodable manifest") from exc
    if manifest.get("format_version") not in SECTION_DIGESTS:
        raise CheckpointError(
            f"{path.name}: unsupported format version "
            f"{manifest.get('format_version')!r}"
        )
    return manifest


def read_checkpoint(path: str | Path) -> tuple[dict, dict[str, bytes]]:
    """Read, verify, and return ``(manifest, sections)``.

    Every section's length and its version's digest are checked against
    the manifest; a mismatch anywhere raises :class:`CheckpointError` so
    the caller can roll back to an older checkpoint.
    """
    path = Path(path)
    manifest = read_manifest(path)
    digest_key, new_digest = SECTION_DIGESTS[manifest["format_version"]]
    sections: dict[str, bytes] = {}
    try:
        with open(path, "rb") as handle:
            for entry in manifest.get("sections", []):
                if digest_key not in entry:
                    raise CheckpointError(
                        f"{path.name}: section {entry['name']!r} has no {digest_key} digest"
                    )
                handle.seek(int(entry["offset"]))
                blob = handle.read(int(entry["length"]))
                if len(blob) < int(entry["length"]):
                    raise CheckpointError(
                        f"{path.name}: section {entry['name']!r} truncated"
                    )
                if _digest([blob], new_digest).hex() != entry[digest_key]:
                    raise CheckpointError(
                        f"{path.name}: section {entry['name']!r} hash mismatch"
                    )
                sections[entry["name"]] = blob
    except OSError as exc:
        raise CheckpointError(f"{path}: unreadable ({exc})") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path.name}: malformed section table") from exc
    return manifest, sections
