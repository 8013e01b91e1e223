"""Serve protocol units: address parsing, message round trips, config
validation of the serve knobs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigError, WireError
from repro.fl.compression import WireSize
from repro.fl.config import EXECUTION_MODES, FLConfig
from repro.fl.parallel import ClientUpdate
from repro.serve import protocol


# -- address parsing --------------------------------------------------------------


@pytest.mark.parametrize(
    "spec,expected",
    [
        ("tcp:127.0.0.1:0", ("tcp", ("127.0.0.1", 0))),
        ("tcp:localhost:8470", ("tcp", ("localhost", 8470))),
        ("tcp:::1:9000", ("tcp", ("::1", 9000))),  # rpartition keeps IPv6 hosts whole
        ("uds:/tmp/fl.sock", ("uds", "/tmp/fl.sock")),
        ("uds:relative.sock", ("uds", "relative.sock")),
    ],
)
def test_parse_serve_addr_accepts(spec, expected):
    assert protocol.parse_serve_addr(spec) == expected


@pytest.mark.parametrize(
    "spec",
    [
        "tcp:8470",  # no host
        "tcp:host:",  # empty port
        "tcp:host:notaport",
        "tcp:host:70000",  # out of range
        "tcp:host:-1",
        "uds:",  # no path
        "http:example.com:80",  # unknown scheme
        "just-nonsense",
    ],
)
def test_parse_serve_addr_rejects(spec):
    with pytest.raises(ConfigError):
        protocol.parse_serve_addr(spec)


# -- config validation ------------------------------------------------------------


def test_serve_is_a_registered_execution_mode():
    assert "serve" in EXECUTION_MODES
    FLConfig(rounds=1, execution="serve")  # constructs cleanly


def test_config_validates_serve_addr_at_construction():
    FLConfig(rounds=1, serve_addr="tcp:127.0.0.1:0")
    with pytest.raises(ConfigError, match="serve_addr"):
        FLConfig(rounds=1, serve_addr="carrier-pigeon:coop")


def test_socket_bounds_are_not_config_fields():
    """The worker engine's timeout, retries, backoff, in-flight cap and
    queue bound are ``ServeExecutor`` arguments: no config field, no flag."""
    from repro.cli import main

    for knob in ("serve_timeout", "serve_retries", "serve_backoff",
                 "serve_max_inflight", "serve_queue_bytes"):
        with pytest.raises(TypeError, match=knob):
            FLConfig(rounds=1, **{knob: 1})
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--serve-timeout", "5"])
    assert excinfo.value.code == 2  # refused by the parser, before any run


# -- message round trips ----------------------------------------------------------


def _deframe(framed: bytes) -> bytes:
    from repro.fl import wire

    (frames,) = [wire.FrameAssembler().feed(framed)]
    assert len(frames) == 1
    return frames[0]


def test_hello_round_trip():
    kind, payload = protocol.parse_message(_deframe(protocol.build_hello(7, 3)))
    assert kind == "hello"
    assert payload["serve.worker"] == 7
    assert payload["serve.attempts"] == 3


def test_state_round_trip_carries_seq():
    state = {"global_params": np.linspace(0, 1, 9)}
    kind, payload = protocol.parse_message(_deframe(protocol.build_state(state, 42)))
    assert kind == "state"
    assert payload["serve.seq"] == 42
    np.testing.assert_array_equal(payload["global_params"], state["global_params"])


def test_state_with_inexpressible_segments_raises_wire_error():
    """No pickled state transport: the server must degrade instead."""
    with pytest.raises(WireError):
        protocol.build_state({"weird": object()}, 1)


def test_model_round_trip_carries_seq_and_model():
    model = np.linspace(-1, 1, 17)
    kind, payload = protocol.parse_message(_deframe(protocol.build_model(5, model)))
    assert kind == "model"
    assert payload["serve.seq"] == 5
    np.testing.assert_array_equal(payload["model"], model)


def test_task_round_trip_carries_headers_and_rows_only():
    row = np.linspace(-1, 1, 17)
    framed = protocol.build_task(
        round_idx=4, position=2, client_id=9, seq=5, block=3, rows={"ef.row": row}
    )
    kind, payload = protocol.parse_message(_deframe(framed))
    assert kind == "task"
    assert payload["serve.round"] == 4
    assert payload["serve.position"] == 2
    assert payload["serve.client"] == 9
    assert payload["serve.seq"] == 5
    assert payload["serve.block"] == 3
    np.testing.assert_array_equal(payload["ef.row"], row)
    assert "model" not in payload  # the model rides in its own frame


def test_shutdown_round_trip():
    assert protocol.parse_message(_deframe(protocol.build_shutdown())) == (
        "shutdown",
        None,
    )


def _update(**overrides) -> ClientUpdate:
    base = dict(
        client_id=3,
        params=np.linspace(-1, 1, 17),
        task_loss=0.25,
        reg_loss=0.0,
        num_steps=5,
        train_seconds=0.125,
        worker=1,
        wire_size=WireSize(values=17),
    )
    base.update(overrides)
    return ClientUpdate(**base)


def test_update_round_trip_dense():
    kind, out = protocol.parse_message(_deframe(protocol.build_update(_update())))
    assert kind == "update"
    np.testing.assert_array_equal(out.params, _update().params)
    assert out.client_id == 3


def test_update_pickle_fallback_round_trip():
    """An update the wire format cannot express rides as a pickle blob."""
    update = _update(payload={"weird": {"nested": "dict"}})
    kind, out = protocol.parse_message(_deframe(protocol.build_update(update)))
    assert kind == "update"
    assert out.payload == {"weird": {"nested": "dict"}}
    np.testing.assert_array_equal(out.params, update.params)


def test_unknown_op_raises_wire_error():
    from repro.fl import wire

    blob = wire.pack("generic", {"serve.op": 999})
    with pytest.raises(WireError, match="unknown serve message"):
        protocol.parse_message(blob)


def test_generic_without_op_raises_wire_error():
    from repro.fl import wire

    blob = wire.pack("generic", {"other": 1})
    with pytest.raises(WireError):
        protocol.parse_message(blob)


# -- byte accounting helper -------------------------------------------------------


def test_update_model_bytes_dense():
    assert protocol.update_model_bytes(_update()) == 17 * 8


def test_update_model_bytes_streams():
    update = _update(
        params=None,
        params_streams={
            "indices": np.array([1, 2], dtype=np.int32),
            "values": np.array([0.5, 1.5]),
        },
    )
    assert protocol.update_model_bytes(update) == 2 * 4 + 2 * 8


def test_update_model_bytes_empty():
    assert protocol.update_model_bytes(_update(params=None)) == 0
