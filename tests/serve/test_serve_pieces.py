"""Frames queued as pieces: what reaches a worker is what was built.

The server queues a state, model or task frame as the pieces
:func:`repro.fl.wire.pack_parts` produced — views of the shared state
and of the model, one list shared by every connection, and of the
task's own rows — and ``_flush`` re-slices a queue's own view on a
partial send.  Sharing and slicing must never change a byte: every test
here compares the digest of what a receiver reassembled with the digest
of ``build_state(...)`` / ``build_model(...)`` / ``build_task(...)`` for
the same arguments.
"""

from __future__ import annotations

import json
import os
import socket
import warnings

import numpy as np
import pytest

from repro.fl import wire
from repro.fl.config import FLConfig
from repro.obs import Tracer
from repro.serve import protocol
from repro.serve.server import ServeExecutor, _Conn, _RoundStats
from tests.fl.test_wire_pieces import digest
from tests.helpers import assert_equivalent_runs, run_with_workers, tiny_model_fn


def _state(seed: int = 0) -> dict:
    """A round state shaped like the bench serve cell's, scaled down: a
    model and the cohort's error-feedback rows, both large enough to
    ride as views."""
    gen = np.random.default_rng(seed)
    ids = np.arange(0, 24, 2, dtype=np.int64)
    return {
        "global_params": gen.normal(size=3001),
        "ef.cohort": np.arange(24, dtype=np.int64),
        "ef.ids": ids,
        "ef.rows": gen.normal(size=(len(ids), 3001)),
    }


# -- joins ------------------------------------------------------------------------


def test_build_state_model_and_task_are_the_joins_of_their_parts():
    state = _state()
    length, pieces = protocol.state_parts(state, 9)
    assert b"".join(pieces) == protocol.build_state(state, 9)
    assert length == len(protocol.build_state(state, 9))
    assert protocol.build_state(state, 9) == wire.frame(
        wire.pack_state({**state, "serve.seq": 9})
    )
    model = state["global_params"]
    length, pieces = protocol.model_parts(9, model)
    assert b"".join(pieces) == protocol.build_model(9, model)
    assert length == len(protocol.build_model(9, model))
    # Nothing was copied: the model rides as a view of the caller's array.
    assert any(np.shares_memory(np.frombuffer(p, dtype=np.uint8), model) for p in pieces)
    rows = {"ef.row": state["ef.rows"][3]}
    length, pieces = protocol.task_parts(3, 1, 7, 9, 2, rows)
    assert b"".join(pieces) == protocol.build_task(3, 1, 7, 9, 2, rows)
    assert length == len(protocol.build_task(3, 1, 7, 9, 2, rows))
    # Nor the row: a view of the snapshot's own array.
    assert any(np.shares_memory(np.frombuffer(p, dtype=np.uint8), rows["ef.row"]) for p in pieces)


# -- one piece list, many queues, partial sends -------------------------------------


class _Choppy:
    """A socket that accepts at most ``chunk`` bytes per ``send`` and
    refuses every third call — each large piece is cut many times."""

    def __init__(self, sock: socket.socket, chunk: int) -> None:
        self._sock = sock
        self._chunk = chunk
        self._calls = 0

    def send(self, data) -> int:
        self._calls += 1
        if self._calls % 3 == 0:
            raise BlockingIOError
        return self._sock.send(data[: self._chunk])

    def __getattr__(self, name):
        return getattr(self._sock, name)


def _drain(executor, conns, peers, stats) -> list[list[bytearray]]:
    received = [[] for _ in conns]
    assemblers = [wire.FrameAssembler() for _ in conns]
    for _ in range(100_000):
        if not any(conn.outq for conn in conns):
            break
        for conn, peer, assembler, frames in zip(conns, peers, assemblers, received):
            assert not executor._flush(conn, stats)
            try:
                frames += assembler.feed(peer.recv(1 << 16))
            except BlockingIOError:
                pass
    for peer, assembler, frames in zip(peers, assemblers, received):
        while True:  # what was sent faster than the loop above read it
            try:
                frames += assembler.feed(peer.recv(1 << 16))
            except BlockingIOError:
                break
    return received


@pytest.mark.parametrize("chunk", [1 << 20, 4093, 997])
def test_shared_pieces_survive_partial_sends_on_every_connection(chunk):
    """Two queues hold the same piece objects; each send cuts a piece
    somewhere else on each connection."""
    executor = ServeExecutor(num_workers=2, queue_bytes=1)
    stats = _RoundStats()
    pairs = [socket.socketpair() for _ in range(2)]
    conns, peers = [], []
    try:
        for index, (ours, theirs) in enumerate(pairs):
            ours.setblocking(False)
            theirs.setblocking(False)
            conns.append(_Conn(_Choppy(ours, chunk + 13 * index)))
            peers.append(theirs)
        state = _state(1)
        state_frame = protocol.state_parts(state, 4)
        model_frame = protocol.model_parts(4, state["global_params"])
        tasks = [
            protocol.task_parts(2, pos, 10 + pos, 4, 3, {"ef.row": state["ef.rows"][pos]})
            for pos in range(3)
        ]
        for conn in conns:
            executor._queue(conn, state_frame, stats)
            executor._queue(conn, model_frame, stats)
        for task in tasks:
            for conn in conns:
                executor._queue(conn, task, stats)
        received = _drain(executor, conns, peers, stats)
    finally:
        for ours, theirs in pairs:
            ours.close()
            theirs.close()
    prefix = wire.FRAME_PREFIX.size
    expected = [protocol.build_state(state, 4), protocol.build_model(4, state["global_params"])] + [
        protocol.build_task(2, pos, 10 + pos, 4, 3, {"ef.row": state["ef.rows"][pos]})
        for pos in range(3)
    ]
    for frames in received:
        assert [digest(f) for f in frames] == [digest(e[prefix:]) for e in expected]
    assert all(conn.out_bytes == 0 for conn in conns)
    assert stats.sent_bytes == 2 * sum(len(e) for e in expected)


# -- end to end: both ends of the socket log what they saw --------------------------


class _FrameLog:
    """Digest every state / model / task frame where it is built (the
    server) and where it is parsed (each worker process, one file per
    pid).

    ``die_in_round`` makes the first worker that receives a task of
    that round exit on the spot, so the server must redispatch what it
    had in flight there and a replacement joins late in the next round.
    """

    def __init__(self, directory, monkeypatch, die_in_round: int | None = None) -> None:
        self.directory = directory
        self.built: dict[str, str] = {}
        self.rows_sent: list[list[str]] = []  # each task's row segment names
        self.server_pid = os.getpid()
        state_parts, model_parts, task_parts, parse = (
            protocol.state_parts, protocol.model_parts, protocol.task_parts,
            protocol.parse_message,
        )
        prefix = wire.FRAME_PREFIX.size

        # The reference is the join at build time — build_state /
        # build_model / build_task by definition (pinned by the first
        # test above).
        def logged_state(state, seq):
            frame = state_parts(state, seq)
            self.built[f"state:{seq}"] = digest(b"".join(frame[1])[prefix:])
            return frame

        def logged_model(seq, model):
            frame = model_parts(seq, model)
            self.built[f"model:{seq}"] = digest(b"".join(frame[1])[prefix:])
            return frame

        def logged_task(round_idx, position, client_id, seq, block, rows=None):
            frame = task_parts(round_idx, position, client_id, seq, block, rows)
            self.built[f"task:{seq}:{position}:{block}"] = digest(b"".join(frame[1])[prefix:])
            self.rows_sent.append(sorted(rows or ()))
            return frame

        def logged_parse(message):
            kind, payload = parse(message)
            if kind == "state":  # the model and own rows ride elsewhere, never here
                assert not [
                    key for key in payload
                    if key == "global_params" or key.startswith(("ef.", "controls."))
                ]
            if kind == "task":
                assert "model" not in payload
            if kind in ("state", "model", "task") and os.getpid() != self.server_pid:
                key = f"{kind}:{payload['serve.seq']}" if kind != "task" else (
                    f"task:{payload['serve.seq']}:{payload['serve.position']}"
                    f":{payload['serve.block']}"
                )
                with open(os.path.join(directory, f"{os.getpid()}.log"), "a") as handle:
                    handle.write(json.dumps([key, digest(message)]) + "\n")
                if kind == "task" and payload["serve.round"] == die_in_round:
                    try:  # exactly one worker wins the race to create it
                        os.close(os.open(os.path.join(directory, "died"),
                                         os.O_CREAT | os.O_EXCL))
                    except FileExistsError:
                        pass
                    else:
                        os._exit(1)
            return kind, payload

        monkeypatch.setattr(protocol, "state_parts", logged_state)
        monkeypatch.setattr(protocol, "model_parts", logged_model)
        monkeypatch.setattr(protocol, "task_parts", logged_task)
        monkeypatch.setattr(protocol, "parse_message", logged_parse)

    def received(self) -> dict[int, list[tuple[str, str]]]:
        out = {}
        for name in os.listdir(self.directory):
            if name.endswith(".log"):
                with open(os.path.join(self.directory, name)) as handle:
                    out[int(name[:-4])] = [tuple(json.loads(line)) for line in handle]
        return out


def _serve(name, kwargs, fed, config, tracer=None, executor=None):
    from repro.algorithms import make_algorithm
    from repro.fl.trainer import run_federated

    algorithm = make_algorithm(name, **kwargs)
    if executor is not None:
        algorithm.with_executor(executor)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        history = run_federated(
            algorithm, fed, tiny_model_fn(fed),
            config.with_updates(execution="serve", num_workers=2), tracer=tracer,
        )
    assert not algorithm.executor.degraded
    return algorithm, history


@pytest.mark.parametrize("compression", ["none", "topk:0.05|qsgd:8"])
@pytest.mark.parametrize("scenario", ["backpressure", "worker-dies"])
def test_delivered_frames_equal_the_built_bytes(fed, tmp_path, monkeypatch, compression, scenario):
    config = FLConfig(
        rounds=6, local_steps=2, batch_size=8, lr=0.1, seed=52, compression=compression
    )
    serial = run_with_workers("scaffold", {}, fed, config, num_workers=1)
    log = _FrameLog(str(tmp_path), monkeypatch, die_in_round=1 if scenario == "worker-dies" else None)
    tracer = Tracer()
    executor = ServeExecutor(2, queue_bytes=1) if scenario == "backpressure" else None
    served = _serve("scaffold", {}, fed, config, tracer=tracer, executor=executor)
    assert_equivalent_runs(serial, served)

    received = log.received()
    seen = set()
    for pid, entries in received.items():
        assert entries, f"worker {pid} logged nothing"
        installed = modelled = None  # the seqs of this worker's last state, last model
        states = []  # each state seq this worker was sent, once each
        for key, frame_digest in entries:
            assert log.built[key] == frame_digest, f"worker {pid}: {key} differs from build_*"
            seen.add(key)
            kind, seq = key.split(":")[:2]
            if kind == "state":
                installed, modelled = seq, None
                states.append(seq)
            elif kind == "model":  # a model goes after its state
                assert seq == installed, f"worker {pid}: {key} before its state"
                modelled = seq
            else:  # a model goes with a connection's first block of it
                assert seq == modelled, f"worker {pid}: {key} before its model"
        assert len(states) == len(set(states)), f"worker {pid}: a state sent twice"
    # Every frame that was built reached some worker intact: a state and
    # a model per round, a task per (round, position).
    assert {k for k in log.built if k.startswith("task")} <= seen
    assert sum(k.startswith("state") for k in seen) == config.rounds
    assert sum(k.startswith("model") for k in seen) == config.rounds
    # Every client has reported a control by the last round, and a
    # residual too under error feedback: those tasks carry the rows.
    rows = ["controls.row"] + (["ef.row"] if compression != "none" else [])
    assert log.rows_sent[-fed.num_clients:] == [rows] * fed.num_clients
    if scenario == "worker-dies":
        counters = tracer.metrics.snapshot()["counters"]
        assert counters["serve.redispatches"] >= 1
        # Two forked at the start, one replacement that joined late and
        # was sent the round's shared state and model with its first block.
        assert len(received) == 3
