"""Packed flat-buffer wire format tests (:mod:`repro.fl.wire`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import WireError
from repro.fl import wire
from repro.fl.compression import WireSize, compressor_from_spec
from repro.fl.parallel import ClientUpdate


# -- pack / unpack round trips ----------------------------------------------------


def test_round_trip_arrays_and_scalars():
    segments = {
        "params": np.arange(12, dtype=np.float64).reshape(3, 4),
        "mask": np.array([True, False, True]),
        "indices": np.array([3, 1, 2], dtype=np.int32),
        "f.loss": 1.5,
        "steps": 7,
    }
    kind, out = wire.unpack(wire.pack("generic", segments))
    assert kind == "generic"
    assert set(out) == set(segments)
    np.testing.assert_array_equal(out["params"], segments["params"])
    np.testing.assert_array_equal(out["mask"], segments["mask"])
    assert out["indices"].dtype == np.int32
    assert out["f.loss"] == 1.5 and isinstance(out["f.loss"], float)
    assert out["steps"] == 7 and isinstance(out["steps"], int)


@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int32, np.int64, np.uint8])
def test_round_trip_preserves_dtype(dtype):
    arr = np.arange(10).astype(dtype)
    _, out = wire.unpack(wire.pack("generic", {"a": arr}))
    assert out["a"].dtype == np.dtype(dtype)
    np.testing.assert_array_equal(out["a"], arr)


def test_payload_is_dtype_true():
    """A float32 vector costs 4 bytes per scalar on the wire, never a
    pickled float64 copy."""
    small = len(wire.pack("generic", {"v": np.zeros(1000, dtype=np.float32)}))
    big = len(wire.pack("generic", {"v": np.zeros(1000, dtype=np.float64)}))
    assert big - small == 4000


def test_round_trip_zero_dim_and_empty_arrays():
    segments = {"scalar_arr": np.array(3.5), "empty": np.zeros(0)}
    _, out = wire.unpack(wire.pack("generic", segments))
    # 0-dim arrays are normalized to shape (1,) by the contiguity pass;
    # genuinely scalar fields should ride as scalar segments instead.
    assert out["scalar_arr"].shape == (1,)
    assert float(out["scalar_arr"][0]) == 3.5
    assert out["empty"].shape == (0,)


def test_unpack_returns_zero_copy_read_only_views():
    buf = wire.pack("generic", {"a": np.arange(8, dtype=np.float64)})
    _, out = wire.unpack(buf)
    arr = out["a"]
    assert not arr.flags.writeable
    assert not arr.flags.owndata  # a view into the message, not a copy
    with pytest.raises(ValueError):
        arr[0] = 99.0


def test_payloads_are_8_byte_aligned():
    buf = wire.pack("generic", {"a": np.arange(3, dtype=np.float64), "b": np.arange(5)})
    _, out = wire.unpack(buf)
    for arr in out.values():
        assert arr.ctypes.data % 8 == 0


def test_unpack_from_memoryview():
    buf = wire.pack("state", {"a": np.arange(4, dtype=np.float64)})
    kind, out = wire.unpack(memoryview(buf))
    assert kind == "state"
    np.testing.assert_array_equal(out["a"], np.arange(4.0))


# -- error cases ------------------------------------------------------------------


def test_pack_rejects_unknown_kind():
    with pytest.raises(WireError, match="kind"):
        wire.pack("telegram", {})


def test_pack_rejects_unsupported_dtype():
    with pytest.raises(WireError, match="dtype"):
        wire.pack("generic", {"a": np.array(["text"], dtype=object)})


def test_pack_rejects_unencodable_value():
    with pytest.raises(WireError, match="cannot encode"):
        wire.pack("generic", {"a": {"nested": "dict"}})


def test_pack_rejects_bad_names():
    with pytest.raises(WireError, match="name"):
        wire.pack("generic", {"": np.zeros(1)})
    with pytest.raises(WireError, match="name"):
        wire.pack("generic", {"x" * 300: np.zeros(1)})


def test_unpack_rejects_bad_magic():
    with pytest.raises(WireError, match="magic"):
        wire.unpack(b"NOPE" + b"\x00" * 32)


def test_unpack_rejects_truncation():
    buf = wire.pack("generic", {"a": np.arange(64, dtype=np.float64)})
    with pytest.raises(WireError, match="truncated"):
        wire.unpack(buf[:10])
    with pytest.raises(WireError, match="truncated"):
        wire.unpack(buf[: len(buf) // 2])


def test_unpack_state_rejects_other_kinds():
    buf = wire.pack("generic", {"a": np.zeros(1)})
    with pytest.raises(WireError, match="state"):
        wire.unpack_state(buf)


# -- state round trip -------------------------------------------------------------


def test_state_round_trip():
    state = {
        "global_params": np.linspace(0, 1, 33),
        "server_control": np.zeros(33),
        "client_controls": np.ones((4, 33)),
    }
    out = wire.unpack_state(wire.pack_state(state))
    assert set(out) == set(state)
    for name, arr in state.items():
        np.testing.assert_array_equal(out[name], arr)


# -- client-update round trip -----------------------------------------------------


def _update(**overrides) -> ClientUpdate:
    base = dict(
        client_id=3,
        params=np.linspace(-1, 1, 17),
        task_loss=0.25,
        reg_loss=0.015625,
        num_steps=5,
        train_seconds=0.125,
        worker=4242,
        wire_size=WireSize(values=17),
    )
    base.update(overrides)
    return ClientUpdate(**base)


def _unpack_update(buf) -> ClientUpdate:
    """Decode a packed update the way the worker engine does."""
    kind, segments = wire.unpack(buf)
    assert kind == "update"
    return wire.client_update_from_segments(segments)


def test_client_update_round_trip_dense():
    update = _update()
    out = _unpack_update(wire.pack_client_update(update))
    np.testing.assert_array_equal(out.params, update.params)
    assert out.client_id == 3 and out.worker == 4242 and out.num_steps == 5
    assert out.task_loss == 0.25 and out.reg_loss == 0.015625
    assert out.train_seconds == 0.125
    assert out.wire_size == update.wire_size
    assert out.payload is None and out.params_streams is None


def test_client_update_round_trip_compressed_streams():
    streams = {
        "indices": np.array([2, 9, 14], dtype=np.int32),
        "values": np.array([0.5, -0.25, 4.0]),
    }
    update = _update(
        params=None,
        params_streams=streams,
        wire_size=WireSize(values=3, index_ints=3, raw_bytes=5),
    )
    out = _unpack_update(wire.pack_client_update(update))
    assert out.params is None
    np.testing.assert_array_equal(out.params_streams["indices"], streams["indices"])
    np.testing.assert_array_equal(out.params_streams["values"], streams["values"])
    assert out.params_streams["indices"].dtype == np.int32
    assert out.wire_size == update.wire_size


def test_packed_topk_update_is_4x_smaller_than_dense_and_decodes_to_compress():
    """A ``topk:0.05`` upload of a float32 model packs to int32 indices
    plus values — at least 4x smaller than the packed dense update — and
    decodes to exactly what ``compress()`` reconstructs."""
    vec = np.random.default_rng(0).normal(size=20_000).astype(np.float32)
    pipeline = compressor_from_spec("topk:0.05")
    streams, size = pipeline.encode(vec, np.random.default_rng(1))
    recon, _size = pipeline.compress(vec, np.random.default_rng(1))
    packed = wire.pack_client_update(
        _update(params=None, params_streams=streams, wire_size=size)
    )
    dense = wire.pack_client_update(
        _update(params=vec, wire_size=WireSize(values=vec.size))
    )
    assert len(dense) >= 4 * len(packed)
    out = _unpack_update(packed)
    assert out.params_streams["indices"].dtype == np.int32
    np.testing.assert_array_equal(pipeline.decode(out.params_streams, vec.size), recon)


def test_client_update_round_trip_payload():
    update = _update(payload={"delta": np.full(6, 2.5), "start_loss": 1.75, "tau": 4})
    out = _unpack_update(wire.pack_client_update(update))
    np.testing.assert_array_equal(out.payload["delta"], update.payload["delta"])
    assert out.payload["start_loss"] == 1.75
    assert out.payload["tau"] == 4


def test_client_update_exotic_payload_raises_wire_error():
    """The pool catches this and returns that one record pickled."""
    update = _update(payload={"weird": object()})
    with pytest.raises(WireError):
        wire.pack_client_update(update)


def test_client_update_without_wire_size_is_refused():
    """Every update states its wire bytes; a message without them is
    malformed, not an update to charge some other way."""
    _kind, segments = wire.unpack(wire.pack_client_update(_update()))
    del segments["wire_size"]
    with pytest.raises(WireError, match="wire_size"):
        wire.client_update_from_segments(segments)
