"""Packed flat-buffer wire format for federated payloads.

Everything that crosses the client-server boundary (or a worker-process
boundary) is a small set of named numpy arrays plus a handful of scalar
fields.  Pickling those is convenient but wasteful: every message pays
the full pickle machinery, dense float64 copies of sparse payloads, and
per-task re-serialization of round-constant state.  This module defines
a minimal self-describing binary layout instead:

    offset 0   magic          b"RFW1"
           4   version        u8  (currently 1)
           5   kind           u8  (KIND_CODES)
           6   segment count  u16 LE
           8   header length  u32 LE (magic through segment table)
          12   total length   u64 LE (whole message)
          20   segment table  one entry per segment
           -   payload        contiguous segment buffers, each 8-aligned

    segment entry:
        flag      u8  (0 = array, 1 = float scalar, 2 = int scalar)
        dtype     u8  (DTYPE_CODES)
        ndim      u8
        name len  u8
        offset    u64 LE (from message start)
        dims      ndim x u64 LE
        name      utf-8 bytes

The payload buffers are dtype-true — a float32 vector costs 4 bytes per
scalar on the wire, never a pickled float64 copy — and :func:`unpack`
returns **zero-copy read-only views** into the source buffer, so a
worker can decode a round-state frame where it was received without
materializing anything.

Three message kinds are used by the transport layer:

* ``"state"`` — the round-constant algorithm state the parent broadcasts
  to workers once per round (:meth:`FederatedAlgorithm._worker_state`).
* ``"update"`` — one finished :class:`~repro.fl.parallel.ClientUpdate`,
  including its compressed streams when a compressor is active.
* ``"generic"`` — free-form named segments.

Anything that cannot be expressed as named arrays / float / int
segments raises :class:`~repro.exceptions.WireError`; callers treat
that as a degradation (see :mod:`repro.fl.parallel`), never as a fatal
error.

**Framing.**  In memory a message's extent is known from context (a
checkpoint section's manifest entry).  On a byte stream — the
multi-process serving subsystem (:mod:`repro.serve`) speaks RFW1 over
TCP / Unix-domain sockets — messages are delimited by a little-endian
``u64`` length prefix (:func:`frame`) and reassembled from arbitrarily
fragmented reads by :class:`FrameAssembler`.  Truncated, torn, or
oversized input must never escape as ``IndexError`` / ``struct.error``:
both the assembler and :func:`unpack` validate every declared length
and offset against the actual buffer and raise :class:`WireError`.
"""

from __future__ import annotations

import struct
from typing import Mapping

import numpy as np

from repro.core.delta import RowBlocks
from repro.exceptions import WireError

MAGIC = b"RFW1"
VERSION = 1

KIND_CODES = {"generic": 0, "update": 1, "state": 2}
_KIND_NAMES = {code: name for name, code in KIND_CODES.items()}

# Wire dtype registry.  Only dtypes that actually cross the boundary are
# admitted; anything else (object arrays, strings) must go via pickle.
DTYPE_CODES = {
    np.dtype(np.float32): 0,
    np.dtype(np.float64): 1,
    np.dtype(np.int32): 2,
    np.dtype(np.int64): 3,
    np.dtype(np.bool_): 4,
    np.dtype(np.uint8): 5,
}
_CODE_DTYPES = {code: dt for dt, code in DTYPE_CODES.items()}

_FLAG_ARRAY = 0
_FLAG_FLOAT = 1
_FLAG_INT = 2

_HEADER = struct.Struct("<4sBBHIQ")  # magic, version, kind, nseg, hdr_len, total_len
_ENTRY_FIXED = struct.Struct("<BBBBQ")  # flag, dtype, ndim, name_len, offset

_ALIGN = 8


def _align(n: int) -> int:
    return (n + _ALIGN - 1) & ~(_ALIGN - 1)


def _as_segment(name: str, value) -> tuple[int, np.ndarray]:
    """Normalize one segment value to (flag, contiguous ndarray)."""
    if isinstance(value, RowBlocks):  # encoded block by block, never stacked
        return _FLAG_ARRAY, value
    if isinstance(value, np.ndarray):
        if value.dtype not in DTYPE_CODES:
            raise WireError(f"segment {name!r}: unsupported dtype {value.dtype}")
        return _FLAG_ARRAY, np.ascontiguousarray(value)
    if isinstance(value, (bool, np.bool_)):
        return _FLAG_INT, np.asarray(int(value), dtype=np.int64)
    if isinstance(value, (int, np.integer)):
        return _FLAG_INT, np.asarray(int(value), dtype=np.int64)
    if isinstance(value, (float, np.floating)):
        return _FLAG_FLOAT, np.asarray(float(value), dtype=np.float64)
    raise WireError(f"segment {name!r}: cannot encode {type(value).__name__}")


# An array segment smaller than this is copied into the bytearray that
# already holds the header, scalars and padding next to it: copying a
# page costs less than the extra ``send`` / ``write`` a piece of its own
# would.  Anything larger is never copied by the encoder.
_VIEW_MIN_BYTES = 4096


def pack_parts(kind: str, segments: Mapping[str, object]) -> tuple[int, list[memoryview]]:
    """Encode named segments as ``(length, pieces)`` without joining them.

    The pieces are byte views that concatenate to the wire message:
    small ``bytearray`` runs (the header, scalars, small arrays and
    alignment padding) and, for every array of ``_VIEW_MIN_BYTES`` or
    more, **the array's own memory**.  A consumer writes them where it
    used to write the joined copy — a file, a socket queue, a shared
    mapping — and :func:`pack` is their join, so there is one encoder.

    A piece aliases its source array: the caller must consume the
    pieces before anything overwrites the arrays it passed in (a piece
    keeps the array alive, not unchanged).
    """
    if kind not in KIND_CODES:
        raise WireError(f"unknown message kind {kind!r}")
    normalized: list[tuple[bytes, int, np.ndarray]] = []
    for name, value in segments.items():
        name_bytes = name.encode("utf-8")
        if not name_bytes or len(name_bytes) > 255:
            raise WireError(f"segment name {name!r} must encode to 1..255 bytes")
        flag, arr = _as_segment(name, value)
        if arr.ndim > 255:
            raise WireError(f"segment {name!r}: too many dimensions")
        normalized.append((name_bytes, flag, arr))

    header_len = _HEADER.size + sum(
        _ENTRY_FIXED.size + arr.ndim * 8 + len(name_bytes)
        for name_bytes, _, arr in normalized
    )
    offsets: list[int] = []
    cursor = _align(header_len)
    for _, _, arr in normalized:
        offsets.append(cursor)
        cursor = _align(cursor + arr.nbytes)
    total_len = cursor

    run = bytearray(
        _HEADER.pack(MAGIC, VERSION, KIND_CODES[kind], len(normalized), header_len, total_len)
    )
    for (name_bytes, flag, arr), offset in zip(normalized, offsets):
        run += _ENTRY_FIXED.pack(flag, DTYPE_CODES[arr.dtype], arr.ndim, len(name_bytes), offset)
        run += struct.pack(f"<{arr.ndim}Q", *arr.shape)
        run += name_bytes

    pieces: list[memoryview] = []
    cursor = header_len
    for (_, _, arr), offset in zip(normalized, offsets):
        run += bytes(offset - cursor)  # alignment padding
        if arr.nbytes < _VIEW_MIN_BYTES:
            run += arr.tobytes()
        else:
            if run:
                pieces.append(memoryview(run))
                run = bytearray()
            blocks = arr.blocks if isinstance(arr, RowBlocks) else (arr,)
            pieces.extend(memoryview(block).cast("B") for block in blocks)
        cursor = offset + arr.nbytes
    run += bytes(total_len - cursor)
    if run:
        pieces.append(memoryview(run))
    return total_len, pieces


def pack(kind: str, segments: Mapping[str, object]) -> bytes:
    """Encode named segments into one contiguous wire message."""
    return b"".join(pack_parts(kind, segments)[1])


def unpack(buf) -> tuple[str, dict[str, object]]:
    """Decode a wire message into ``(kind, segments)``.

    Array segments come back as zero-copy **read-only** views into
    ``buf`` (which may be bytes, a bytearray or a memoryview); scalar
    segments come back as plain ``float`` / ``int``.  The views keep
    ``buf`` alive, but a caller that overwrites a buffer in place must
    not hold views across the overwrite.
    """
    view = memoryview(buf)
    if len(view) < _HEADER.size:
        raise WireError(f"message truncated: {len(view)} bytes")
    try:
        magic, version, kind_code, nseg, header_len, total_len = _HEADER.unpack_from(
            view, 0
        )
    except struct.error as exc:  # non-contiguous / exotic buffer shapes
        raise WireError(f"unreadable message header: {exc}") from exc
    if magic != MAGIC:
        raise WireError(f"bad magic {magic!r}")
    if version != VERSION:
        raise WireError(f"unsupported wire version {version}")
    if kind_code not in _KIND_NAMES:
        raise WireError(f"unknown kind code {kind_code}")
    if header_len < _HEADER.size:
        raise WireError(
            f"header length {header_len} smaller than the fixed header"
        )
    if total_len > len(view) or header_len > total_len:
        raise WireError(
            f"message truncated: header claims {total_len} bytes, have {len(view)}"
        )

    segments: dict[str, object] = {}
    pos = _HEADER.size
    for _ in range(nseg):
        # Every entry read is bounds-checked against the *declared*
        # header extent first, so a lying segment count or a torn table
        # raises WireError instead of struct.error / IndexError.
        if pos + _ENTRY_FIXED.size > header_len:
            raise WireError("segment table overruns the declared header")
        flag, dtype_code, ndim, name_len, offset = _ENTRY_FIXED.unpack_from(view, pos)
        pos += _ENTRY_FIXED.size
        if pos + ndim * 8 + name_len > header_len:
            raise WireError("segment entry overruns the declared header")
        dims = struct.unpack_from(f"<{ndim}Q", view, pos) if ndim else ()
        pos += ndim * 8
        try:
            name = bytes(view[pos : pos + name_len]).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireError(f"segment name is not valid UTF-8: {exc}") from exc
        pos += name_len
        if flag not in (_FLAG_ARRAY, _FLAG_FLOAT, _FLAG_INT):
            raise WireError(f"segment {name!r}: unknown flag {flag}")
        dtype = _CODE_DTYPES.get(dtype_code)
        if dtype is None:
            raise WireError(f"segment {name!r}: unknown dtype code {dtype_code}")
        # Python-int product: u64 dims from a hostile message cannot
        # silently overflow an int64 accumulator into a "valid" size.
        count = 1
        for dim in dims:
            count *= int(dim)
        if flag != _FLAG_ARRAY and count != 1:
            raise WireError(f"scalar segment {name!r} must hold exactly one value")
        end = offset + count * dtype.itemsize
        if offset < header_len or end > total_len:
            raise WireError(f"segment {name!r} overruns the message")
        arr = np.frombuffer(view, dtype=dtype, count=count, offset=offset)
        if flag == _FLAG_FLOAT:
            segments[name] = float(arr[0])
        elif flag == _FLAG_INT:
            segments[name] = int(arr[0])
        else:
            arr = arr.reshape(dims)
            arr.flags.writeable = False
            segments[name] = arr
    return _KIND_NAMES[kind_code], segments


# -- stream framing -----------------------------------------------------------------

# A framed message on a byte stream is [u64 LE length][message].  The
# serving subsystem (repro.serve) uses this for every socket exchange.
FRAME_PREFIX = struct.Struct("<Q")

# A declared frame length beyond this is treated as stream corruption,
# not as a request to buffer gigabytes: no payload in this codebase
# comes anywhere near it, and a torn prefix read as a length must not
# stall the reader forever waiting for impossible bytes.
MAX_FRAME_BYTES = 1 << 31


def frame_parts(length: int, pieces) -> tuple[int, list]:
    """Length-prefix a message of ``length`` bytes given as pieces."""
    if not length:
        raise WireError("cannot frame an empty message")
    if length > MAX_FRAME_BYTES:
        raise WireError(
            f"message of {length} bytes exceeds the {MAX_FRAME_BYTES}-byte "
            "frame limit"
        )
    prefix = memoryview(FRAME_PREFIX.pack(length))
    return FRAME_PREFIX.size + length, [prefix, *pieces]


def frame(message: bytes) -> bytes:
    """Length-prefix one wire message for transmission on a byte stream."""
    return b"".join(frame_parts(len(message), [message])[1])


class FrameAssembler:
    """Reassemble length-prefixed frames from fragmented stream reads.

    Sockets deliver bytes, not messages: one ``recv`` may carry half a
    length prefix, several concatenated frames, or a single byte.
    :meth:`feed` buffers whatever arrives and returns every *complete*
    frame payload, in order.  A declared length of zero or beyond
    ``max_frame_bytes`` raises :class:`WireError` immediately — the
    stream is corrupt and waiting for more bytes cannot fix it.

    Each frame fills a buffer of its own that grows with the bytes
    received (never to the declared length up front: a hostile prefix
    costs nothing) and is handed out as it is — a ``bytearray`` that
    compares equal to the sent ``bytes`` and that :func:`unpack` reads
    in place.
    """

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        self.max_frame_bytes = int(max_frame_bytes)
        self._prefix = bytearray()
        self._frame: bytearray | None = None  # None: still reading the prefix
        self._length = 0

    def feed(self, data: bytes) -> list[bytearray]:
        """Absorb one read's bytes; return the completed frame payloads."""
        view = memoryview(data)
        frames: list[bytearray] = []
        while len(view):
            if self._frame is None:
                take = FRAME_PREFIX.size - len(self._prefix)
                self._prefix += view[:take]
                view = view[take:]
                if len(self._prefix) < FRAME_PREFIX.size:
                    break
                (self._length,) = FRAME_PREFIX.unpack(self._prefix)
                if self._length == 0 or self._length > self.max_frame_bytes:
                    raise WireError(
                        f"frame declares {self._length} bytes "
                        f"(limit {self.max_frame_bytes}); stream is corrupt"
                    )
                self._prefix.clear()
                self._frame = bytearray()
            take = self._length - len(self._frame)
            self._frame += view[:take]
            view = view[take:]
            if len(self._frame) == self._length:
                frames.append(self._frame)
                self._frame = None
        return frames


# -- round-state broadcast ----------------------------------------------------------


def pack_state(state: Mapping[str, object]) -> bytes:
    """Encode a round-state dict (arrays / scalars) for broadcast."""
    return pack("state", state)


def unpack_state(buf) -> dict[str, object]:
    """Decode a round-state broadcast; arrays are zero-copy views."""
    kind, segments = unpack(buf)
    if kind != "state":
        raise WireError(f"expected a state message, got {kind!r}")
    return segments


# -- client updates -----------------------------------------------------------------

# Fixed numeric fields of ClientUpdate, packed as scalar segments.
_UPDATE_INTS = ("client_id", "num_steps", "worker")
_UPDATE_FLOATS = ("task_loss", "reg_loss", "train_seconds")


def pack_client_update(update) -> bytes:
    """Encode a :class:`~repro.fl.parallel.ClientUpdate`.

    Raises :class:`WireError` when the update carries anything the
    format cannot express (e.g. an exotic payload value); a worker
    then returns that one update as its pickled record.
    """
    segments: dict[str, object] = {}
    for field in _UPDATE_INTS:
        segments[f"f.{field}"] = int(getattr(update, field))
    for field in _UPDATE_FLOATS:
        segments[f"f.{field}"] = float(getattr(update, field))
    if update.params is not None:
        segments["params"] = update.params
    if update.residual is not None:
        segments["residual"] = update.residual
    ws = update.wire_size
    segments["wire_size"] = np.array(
        [ws.values, ws.index_ints, ws.raw_bytes], dtype=np.int64
    )
    if update.params_streams:
        for name, value in update.params_streams.items():
            if not isinstance(value, np.ndarray):
                raise WireError(f"stream {name!r} must be an ndarray")
            segments[f"s.{name}"] = value
    if update.payload:
        for name, value in update.payload.items():
            segments[f"p.{name}"] = value
    return pack("update", segments)


def client_update_from_segments(segments: Mapping[str, object]):
    """The :class:`~repro.fl.parallel.ClientUpdate` an already unpacked
    ``update`` message holds (a caller that had to :func:`unpack` the
    message to learn its kind must not decode it a second time)."""
    from repro.fl.compression import WireSize
    from repro.fl.parallel import ClientUpdate

    fields: dict[str, object] = {}
    streams: dict[str, np.ndarray] = {}
    payload: dict[str, object] = {}
    params = None
    residual = None
    wire_size = None
    for name, value in segments.items():
        prefix, _, rest = name.partition(".")
        if prefix == "f":
            fields[rest] = value
        elif prefix == "s":
            streams[rest] = value
        elif prefix == "p":
            payload[rest] = value
        elif name == "params":
            params = value
        elif name == "residual":
            residual = value
        elif name == "wire_size":
            values, index_ints, raw_bytes = (int(x) for x in value)
            wire_size = WireSize(values=values, index_ints=index_ints, raw_bytes=raw_bytes)
        else:
            raise WireError(f"unexpected segment {name!r} in update message")
    missing = [f for f in _UPDATE_INTS + _UPDATE_FLOATS if f not in fields]
    if wire_size is None:
        missing.append("wire_size")
    if missing:
        raise WireError(f"update message missing fields {missing}")
    return ClientUpdate(
        client_id=int(fields["client_id"]),
        params=params,
        wire_size=wire_size,
        task_loss=float(fields["task_loss"]),
        reg_loss=float(fields["reg_loss"]),
        num_steps=int(fields["num_steps"]),
        train_seconds=float(fields["train_seconds"]),
        worker=int(fields["worker"]),
        payload=payload or None,
        params_streams=streams or None,
        residual=residual,
    )
