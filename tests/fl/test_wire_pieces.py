"""RFW1 produced as pieces: the bytes cannot move.

:func:`repro.fl.wire.pack_parts` emits a message as a list of buffers —
small header/scalar/padding runs plus each large array's own memory —
that the checkpoint writer, the serve sockets and the pool's shared
mapping consume without a joined copy.  ``pack`` is the join of those
pieces, so these tests pin the one encoder from both sides: pieces join
to the declared length over a seeded matrix of shapes and dtypes, and
the joined bytes hash to digests **recorded from the parent commit**
(the joining ``bytearray`` encoder) for fixed inputs.
"""

from __future__ import annotations

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.exceptions import WireError
from repro.fl import wire
from repro.fl.compression import WireSize
from repro.fl.parallel import ClientUpdate


def digest(payload) -> str:
    return hashlib.blake2b(payload, digest_size=16).hexdigest()


# -- fixed inputs (the parent's digests of these are recorded below) ---------------


def golden_segments() -> dict:
    gen = np.random.default_rng(18)
    return {
        "f64": gen.normal(size=(5, 3)),
        "f32": gen.normal(size=7).astype(np.float32),
        "i32": np.arange(-3, 4, dtype=np.int32),
        "i64": np.arange(5, dtype=np.int64) * 2**40,
        "bool": np.array([True, False, True]),
        "u8": np.arange(11, dtype=np.uint8),
        "zero_d": np.asarray(2.5),
        "empty": np.zeros((0, 4)),
        "strided": gen.normal(size=(6, 4))[::2, 1:],
        "fortran": np.asfortranarray(gen.normal(size=(3, 4))),
        # Large enough to ride as a view of its own memory, odd enough
        # to need padding after it.
        "big_f32": gen.normal(size=(37, 61)).astype(np.float32),
        "big_u8": gen.integers(0, 255, size=5003).astype(np.uint8),
        "round": 7,
        "loss": 0.125,
        "flag": True,
        "tail": gen.normal(size=9000),
    }


def golden_update() -> ClientUpdate:
    gen = np.random.default_rng(81)
    return ClientUpdate(
        client_id=5,
        params=None,
        task_loss=0.75,
        reg_loss=0.0625,
        num_steps=3,
        train_seconds=0.5,
        worker=4242,
        payload={"delta": gen.normal(size=6), "tau": 3, "scale": 0.5},
        params_streams={
            "indices": np.sort(gen.choice(12000, size=600, replace=False)).astype(np.int32),
            "values": gen.normal(size=600),
        },
        wire_size=WireSize(values=2, index_ints=600, raw_bytes=600),
        residual=gen.normal(size=12000),
    )


GOLDEN = {
    "pack": "98e3d6265076d243c78bb5caa41b0e07",
    "pack_state": "89ad059b0e4b7ee0dab45746cfd86271",
    # Re-recorded: the update message lost ``f.wire`` and two ``wire_size`` ints.
    "pack_client_update": "0b02fa68d56515feba128ade5edbf149",
    "frame": "8c0bba3b7dd07c3aaf76441cf788fd02",
    "pack_empty": "2aaf953756dd1408bf52ec74c761d02d",
}


def golden_outputs() -> dict[str, bytes]:
    message = wire.pack("generic", golden_segments())
    return {
        "pack": message,
        "pack_state": wire.pack_state(golden_segments()),
        "pack_client_update": wire.pack_client_update(golden_update()),
        "frame": wire.frame(message),
        "pack_empty": wire.pack("generic", {}),
    }


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_bytes_equal_the_parent_commits(name):
    assert digest(golden_outputs()[name]) == GOLDEN[name]


# -- pieces join to the message ----------------------------------------------------


def _joined(kind: str, segments: dict) -> bytes:
    length, pieces = wire.pack_parts(kind, segments)
    joined = b"".join(pieces)
    assert len(joined) == length
    assert sum(piece.nbytes for piece in pieces) == length
    assert joined == wire.pack(kind, segments)
    return joined


def test_golden_inputs_join_to_the_recorded_bytes():
    assert digest(_joined("generic", golden_segments())) == GOLDEN["pack"]
    assert digest(_joined("state", golden_segments())) == GOLDEN["pack_state"]
    assert digest(_joined("generic", {})) == GOLDEN["pack_empty"]


@pytest.mark.parametrize("dtype", sorted(wire.DTYPE_CODES, key=str))
def test_every_dtype_and_padding(dtype):
    """Sizes 1..17 hit every alignment remainder at every itemsize, on
    both sides of the copy-or-view threshold."""
    gen = np.random.default_rng(3)
    for size in range(1, 18):
        for scale in (1, 1031):
            arr = (gen.normal(size=size * scale) * 100).astype(dtype)
            message = _joined("generic", {"a": arr, "n": size, "b": arr[::-1]})
            _kind, out = wire.unpack(message)
            np.testing.assert_array_equal(out["a"], arr)
            np.testing.assert_array_equal(out["b"], arr[::-1])
            assert out["a"].dtype == dtype and out["n"] == size


@pytest.mark.parametrize(
    "value",
    [
        np.asarray(3.5),  # 0-d
        np.zeros((0,)),
        np.zeros((4, 0, 3), dtype=np.float32),
        np.arange(6000.0).reshape(60, 100)[::2, ::3],  # non-contiguous
        np.asfortranarray(np.arange(6000.0).reshape(60, 100)),
        np.arange(12.0).reshape(3, 4).T,
        7,
        -2.25,
        True,
        np.int32(9),
        np.float32(0.5),
        np.bool_(False),
    ],
    ids=lambda v: f"{type(v).__name__}-{getattr(v, 'shape', '')}",
)
def test_shapes_layouts_and_scalars(value):
    message = _joined("update", {"before": np.arange(3), "x": value, "after": 1.5})
    _kind, out = wire.unpack(message)
    if isinstance(value, np.ndarray):
        np.testing.assert_array_equal(out["x"], value)
        # (a 0-d array has always travelled as shape (1,))
        assert out["x"].shape == np.atleast_1d(value).shape
    else:
        assert out["x"] == value
    assert out["after"] == 1.5


def test_large_arrays_ride_as_views_of_their_own_memory():
    big = np.arange(50_000, dtype=np.float64)
    _length, pieces = wire.pack_parts("generic", {"big": big, "n": 1})
    owners = [np.shares_memory(np.frombuffer(piece, dtype=np.uint8), big) for piece in pieces]
    assert owners.count(True) == 1
    # Mutating the source before the join shows through: nothing was copied.
    big[0] = -1.0
    _kind, out = wire.unpack(b"".join(pieces))
    assert out["big"][0] == -1.0


def test_pack_parts_rejects_what_pack_rejects():
    with pytest.raises(WireError):
        wire.pack_parts("telegram", {})
    with pytest.raises(WireError):
        wire.pack_parts("generic", {"a": np.array(["text"], dtype=object)})
    with pytest.raises(WireError):
        wire.pack_parts("generic", {"": np.zeros(1)})


def test_frame_parts_prefix_and_limits():
    length, pieces = wire.pack_parts("generic", golden_segments())
    framed_length, framed = wire.frame_parts(length, pieces)
    joined = b"".join(framed)
    assert framed_length == len(joined) == length + wire.FRAME_PREFIX.size
    assert digest(joined) == GOLDEN["frame"]
    with pytest.raises(WireError, match="empty"):
        wire.frame_parts(0, [])
    with pytest.raises(WireError, match="frame limit"):
        wire.frame_parts(wire.MAX_FRAME_BYTES + 1, [])


# -- decode once -------------------------------------------------------------------


def test_update_message_is_unpacked_once(monkeypatch):
    """parse_message used to unpack an update frame to read its kind and
    then unpack the same buffer again to build the ClientUpdate."""
    from repro.serve import protocol

    message = wire.pack_client_update(golden_update())
    calls = []
    original = wire.unpack

    def counting(buf):
        calls.append(len(buf))
        return original(buf)

    monkeypatch.setattr(wire, "unpack", counting)
    kind, update = protocol.parse_message(message)
    assert kind == "update" and update.client_id == 5
    np.testing.assert_array_equal(update.residual, golden_update().residual)
    assert len(calls) == 1


# -- the assembler's memory --------------------------------------------------------


def test_declared_length_costs_nothing_until_bytes_arrive():
    """A prefix declaring almost 2 GiB followed by 10 bytes must cost
    O(received) memory, not the declared length."""
    assembler = wire.FrameAssembler()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        frames = assembler.feed(wire.FRAME_PREFIX.pack(wire.MAX_FRAME_BYTES - 1) + b"x" * 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert frames == []
    assert assembler.pending_bytes == wire.FRAME_PREFIX.size + 10
    assert peak - before < 1 << 16


@pytest.mark.parametrize("length", [0, wire.MAX_FRAME_BYTES + 1])
def test_bad_declared_length_still_raises(length):
    assembler = wire.FrameAssembler()
    assembler.feed(wire.FRAME_PREFIX.pack(length)[:5])  # a torn prefix first
    with pytest.raises(WireError, match="corrupt"):
        assembler.feed(wire.FRAME_PREFIX.pack(length)[5:])


def test_completed_frame_is_handed_out_not_copied():
    """One buffer per frame: what feed returns is the buffer it filled."""
    message = wire.pack("generic", {"a": np.arange(40_000.0)})
    framed = wire.frame(message)
    assembler = wire.FrameAssembler()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        frames = []
        for start in range(0, len(framed), 1 << 16):
            frames += assembler.feed(framed[start : start + (1 << 16)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert frames == [message]
    # The frame itself (with the buffer's growth slack) and one chunk —
    # the parent peaked at three times the message.
    assert peak - before < 1.5 * len(message)
    _kind, out = wire.unpack(frames[0])
    assert not out["a"].flags.writeable
