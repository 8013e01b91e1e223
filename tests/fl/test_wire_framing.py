"""Stream framing tests (:mod:`repro.fl.wire` framing layer).

The serve transport ships RFW1 messages over byte streams, so framing
must survive arbitrary fragmentation and reject corruption with
:class:`WireError` — never ``IndexError`` / ``struct.error`` leaking
out of the decoder.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import WireError
from repro.fl import wire


def _message(seed: int = 0) -> bytes:
    gen = np.random.default_rng(seed)
    return wire.pack(
        "generic",
        {
            "params": gen.normal(size=13),
            "mask": np.array([1, 0, 1], dtype=np.uint8),
            "round": int(seed),
            "loss": 0.5,
        },
    )


# -- frame() ----------------------------------------------------------------------


def test_frame_prepends_length_prefix():
    message = _message()
    framed = wire.frame(message)
    assert framed[: wire.FRAME_PREFIX.size] == wire.FRAME_PREFIX.pack(len(message))
    assert framed[wire.FRAME_PREFIX.size :] == message


def test_frame_rejects_empty_message():
    with pytest.raises(WireError, match="empty"):
        wire.frame(b"")


def test_frame_rejects_oversized_message():
    class _Huge(bytes):
        def __len__(self) -> int:  # avoid allocating 2 GiB for real
            return wire.MAX_FRAME_BYTES + 1

    with pytest.raises(WireError, match="frame limit"):
        wire.frame(_Huge(b"x"))


# -- reassembly under fragmentation -----------------------------------------------


def _drained(assembler) -> bool:
    """Nothing is buffered toward a frame: the next frame fed whole
    comes back whole, alone."""
    sentinel = _message(99)
    return assembler.feed(wire.frame(sentinel)) == [sentinel]


def test_single_feed_round_trip():
    message = _message()
    assembler = wire.FrameAssembler()
    frames = assembler.feed(wire.frame(message))
    assert frames == [message]
    assert _drained(assembler)


def test_split_at_every_boundary():
    """Property-style: any single split point reassembles identically."""
    message = _message(1)
    framed = wire.frame(message)
    for cut in range(len(framed) + 1):
        assembler = wire.FrameAssembler()
        frames = assembler.feed(framed[:cut])
        frames += assembler.feed(framed[cut:])
        assert frames == [message], f"split at byte {cut} corrupted the frame"
        assert _drained(assembler)


def test_one_byte_dribble():
    message = _message(2)
    framed = wire.frame(message)
    assembler = wire.FrameAssembler()
    frames: list[bytes] = []
    for i in range(len(framed)):
        frames += assembler.feed(framed[i : i + 1])
        if i < len(framed) - 1:
            assert frames == []
    assert frames == [message]


def test_concatenated_frames_in_one_feed():
    messages = [_message(s) for s in range(4)]
    blob = b"".join(wire.frame(m) for m in messages)
    assembler = wire.FrameAssembler()
    assert assembler.feed(blob) == messages


def test_concatenated_frames_split_at_every_boundary():
    messages = [_message(10), _message(11)]
    blob = b"".join(wire.frame(m) for m in messages)
    # Sweep a stride through the concatenated stream so splits land both
    # inside prefixes and across frame boundaries.
    for stride in (1, 3, 7, wire.FRAME_PREFIX.size, 64):
        assembler = wire.FrameAssembler()
        frames: list[bytes] = []
        for i in range(0, len(blob), stride):
            frames += assembler.feed(blob[i : i + stride])
        assert frames == messages, f"stride {stride} corrupted the stream"
        assert _drained(assembler)


def test_reassembled_frames_are_independent_copies():
    """Payloads must stay valid after the assembler's buffer mutates."""
    m1, m2 = _message(20), _message(21)
    assembler = wire.FrameAssembler()
    (first,) = assembler.feed(wire.frame(m1))
    assembler.feed(wire.frame(m2))
    assert first == m1
    kind, out = wire.unpack(first)
    assert kind == "generic"


# -- corruption -------------------------------------------------------------------


def test_zero_length_frame_is_corruption():
    assembler = wire.FrameAssembler()
    with pytest.raises(WireError, match="corrupt"):
        assembler.feed(wire.FRAME_PREFIX.pack(0))


def test_oversized_declared_length_is_corruption():
    """A torn prefix read as a huge length must fail fast, not buffer."""
    assembler = wire.FrameAssembler()
    with pytest.raises(WireError, match="corrupt"):
        assembler.feed(wire.FRAME_PREFIX.pack(wire.MAX_FRAME_BYTES + 1))


def test_custom_frame_limit():
    assembler = wire.FrameAssembler(max_frame_bytes=16)
    with pytest.raises(WireError, match="corrupt"):
        assembler.feed(wire.FRAME_PREFIX.pack(17))


# -- corrupted-message regression matrix ------------------------------------------


def test_unpack_truncation_at_every_length():
    """Every possible truncation raises WireError — never IndexError or
    struct.error from the decoder internals."""
    message = _message(3)
    for cut in range(len(message)):
        with pytest.raises(WireError):
            wire.unpack(message[:cut])


def test_unpack_single_byte_corruption_never_leaks_internal_errors():
    """Flip every byte of a valid message: unpack must either succeed
    (the flip landed in payload data) or raise WireError."""
    message = bytearray(_message(4))
    for i in range(len(message)):
        corrupted = bytearray(message)
        corrupted[i] ^= 0xFF
        try:
            wire.unpack(bytes(corrupted))
        except WireError:
            pass  # the only acceptable failure mode


def test_unpack_oversized_declared_dims():
    """Hostile u64 dims cannot overflow into a 'valid' segment size."""
    message = bytearray(_message(5))
    # The first segment entry's dims sit right after the fixed header +
    # entry-fixed block; stamp a huge u64 over the first dim.
    import struct as _struct

    pos = wire._HEADER.size + wire._ENTRY_FIXED.size
    _struct.pack_into("<Q", message, pos, 1 << 62)
    with pytest.raises(WireError):
        wire.unpack(bytes(message))
