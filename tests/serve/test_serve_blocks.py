"""Block-dispatched task frames, end to end: a serve worker trains the
block it was handed (:func:`repro.fl.parallel.dispatch_units`, handed
out by :mod:`repro.serve.schedule`) through the serial engine, holding
its frames until the block is complete.  Nobody can tell from the
numbers: every served run here equals the serial run exactly, whatever
the block size, however the frames were cut on their way in, and
whichever worker died holding half of one.
"""

from __future__ import annotations

import os
import socket
import threading
import warnings
from collections import Counter

import numpy as np
import pytest

from repro.algorithms import make_algorithm
from repro.algorithms.base import COHORT_BLOCK
from repro.data import make_virtual_federation
from repro.fl import wire
from repro.fl.config import FLConfig
from repro.fl.parallel import SerialExecutor
from repro.fl.trainer import run_federated
from repro.models import build_model
from repro.obs import Tracer
from repro.serve import protocol, worker
from repro.serve.arena import RowArena
from repro.serve.server import ServeExecutor
from tests.fl.test_cohort_stacking import _counters
from tests.helpers import assert_equivalent_runs

CLIENTS = 2 * COHORT_BLOCK + 8  # two full blocks and a short one
SHARD = 12
BATCH = 8
ROUNDS = 2


def _federation(ragged: bool = False):
    virt = make_virtual_federation(
        CLIENTS, seed=5, similarity=0.3, samples_per_client=SHARD, num_test=32
    )
    if ragged:  # one longer shard in the middle of the first block
        virt.client_sizes[COHORT_BLOCK // 2] = SHARD + 3
    return virt.materialize()


@pytest.fixture(scope="module")
def fed():
    return _federation()


def _config(**overrides) -> FLConfig:
    base = dict(rounds=ROUNDS, local_steps=2, batch_size=BATCH, lr=0.1, seed=61)
    base.update(overrides)
    return FLConfig(**base)


def _run(name, fed, config, model="mlp", tracer=None, executor=None):
    algorithm = make_algorithm(name)
    if executor is not None:
        algorithm.with_executor(executor)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # a degraded run proves nothing
        history = run_federated(
            algorithm, fed, lambda: build_model(model, fed.spec, seed=2, scale=0.25),
            config, tracer=tracer,
        )
    return algorithm, history


def _serve(name, fed, config, **kwargs):
    served = _run(name, fed, config.with_updates(execution="serve", num_workers=2), **kwargs)
    assert served[0].executor.name == "serve" and not served[0].executor.degraded
    return served


@pytest.fixture
def served_rounds(monkeypatch):
    """The update list of every served round, as ``ServeExecutor.stream``
    yielded it."""
    rounds, real_stream = [], ServeExecutor.stream

    def recording(self, algorithm, round_idx, regions):
        rounds.append([])
        for group, update in real_stream(self, algorithm, round_idx, regions):
            rounds[-1].append(update)
            yield group, update

    monkeypatch.setattr(ServeExecutor, "stream", recording)
    return rounds


# -- (a) served == serial, and the server counts what serial counts ------------------

CASES = {
    # case: (algorithm, model, ragged shards, the serial engine's answer)
    "stacks": ("fedavg", "mlp", False, None),
    "stacks_regularized": ("rfedavg+", "mlp", False, None),
    "algorithm": ("scaffold", "mlp", False, "algorithm"),
    "model": ("fedavg", "cnn", False, "model"),
    "ragged": ("fedavg", "mlp", True, "ragged"),
}
WIRE = {
    "dense": {},
    "compressed": {"compression": "topk:0.05|qsgd:8", "error_feedback": True},
}


@pytest.mark.parametrize("wire_name", sorted(WIRE))
@pytest.mark.parametrize(
    "case, addr",
    [(case, None) for case in sorted(CASES)] + [("stacks", "tcp:127.0.0.1:0")],
)
def test_served_blocks_equal_the_serial_engine(case, addr, wire_name):
    name, model, ragged, refusal = CASES[case]
    fed = _federation(ragged)
    config = _config(serve_addr=addr, **WIRE[wire_name])
    serial_tracer, serve_tracer = Tracer(), Tracer()
    serial = _run(name, fed, config, model=model, tracer=serial_tracer)
    served = _serve(name, fed, config, model=model, tracer=serve_tracer)
    assert_equivalent_runs(serial, served)

    # Same counts under the same names: the blocks the server cut are the
    # blocks the serial engine cuts, and stack_refusal answers alike.
    counted = _counters(serve_tracer, "executor.")
    assert counted == _counters(serial_tracer, "executor.")
    blocks = -(-CLIENTS // COHORT_BLOCK) * ROUNDS
    # A block that stacks goes out whole; a refused one, one client a
    # block: {dispatched size: blocks of that size a round}.
    dispatched = {
        None: {COHORT_BLOCK: 2, 8: 1},
        "ragged": {1: COHORT_BLOCK, COHORT_BLOCK: 1, 8: 1},
    }.get(refusal, {1: CLIENTS})
    assert _counters(serve_tracer, "serve.")["serve.task_blocks"] == (
        sum(dispatched.values()) * ROUNDS
    )
    if refusal is None:
        assert counted == {
            "executor.stacked_blocks": blocks,
            "executor.stacked_clients": CLIENTS * ROUNDS,
        }
    elif refusal == "ragged":  # only the block holding the long shard
        assert counted == {
            "executor.stacked_blocks": blocks - ROUNDS,
            "executor.stacked_clients": (CLIENTS - COHORT_BLOCK) * ROUNDS,
            "executor.cohort_unstacked{reason=ragged}": ROUNDS,
        }
    else:
        assert counted == {f"executor.cohort_unstacked{{reason={refusal}}}": ROUNDS}
    sizes = Counter(span.attrs["block"] for span in serve_tracer.find("local_train"))
    assert sizes == {size: size * count * ROUNDS for size, count in dispatched.items()}


def test_stacked_blocks_come_back_as_blocks(fed, served_rounds):
    """A stacked block splits its wall clock evenly, so its clients
    report one ``train_seconds`` — the worker trained them together."""
    _serve("fedavg", fed, _config())
    for updates in served_rounds:
        for start in range(0, CLIENTS, COHORT_BLOCK):
            block = updates[start : start + COHORT_BLOCK]
            assert len({(u.worker, u.train_seconds) for u in block}) == 1


# -- (b), (g) the worker's side of a block, frame by frame ---------------------------


class _Trickle:
    """A socket whose ``recv`` hands out exactly the scripted sizes, then
    whatever arrives."""

    def __init__(self, sock: socket.socket, sizes) -> None:
        self._sock = sock
        self._sizes = iter(sizes)

    def recv(self, limit: int) -> bytes:
        size = next(self._sizes, None)
        if size is None:
            return self._sock.recv(limit)
        return self._sock.recv(size, socket.MSG_WAITALL)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._sock.close()

    def __getattr__(self, name):
        return getattr(self._sock, name)


def _bound_algorithm(fed, **overrides):
    algorithm = make_algorithm("fedavg")
    algorithm.setup(build_model("mlp", fed.spec, seed=2, scale=0.25), fed, _config(**overrides))
    return algorithm


def _task_stream(algorithm, blocks, seq=3, round_idx=1, stale=None):
    """The frames of one round for one worker: its state and its model,
    then each block's tasks back to back.  ``stale`` gives one position
    another sequence number."""
    cohort = [cid for block in blocks for cid in block]
    shared, _rows = algorithm._served_state(algorithm._worker_state(cohort))
    frames = [protocol.build_state(shared, seq), protocol.build_model(seq, algorithm.global_params)]
    position = 0
    for block in blocks:
        for cid in block:
            frames.append(
                protocol.build_task(
                    round_idx, position, cid, seq + (position == stale), len(block)
                )
            )
            position += 1
    return frames


def _worker_session(fed, tmp_path, monkeypatch, frames, cuts, expect, algorithm=None, arena=None):
    """Run ``worker_main`` in a thread against this test as its server;
    returns the update frames it answered before closing (at most
    ``expect``, after which it is told to shut down)."""
    path = str(tmp_path / "w.sock")
    real_connect = worker.connect_with_retry

    def connect(*args):
        sock, attempts = real_connect(*args)
        return _Trickle(sock, cuts), attempts

    monkeypatch.setattr(worker, "connect_with_retry", connect)
    updates = []
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as listener:
        listener.bind(path)
        listener.listen(1)
        listener.settimeout(10.0)
        thread = threading.Thread(
            target=worker.worker_main,
            args=(algorithm or _bound_algorithm(fed), ("uds", path), 1, 10.0, 2, 0.01, (), arena),
            daemon=True,
        )
        thread.start()
        conn, _ = listener.accept()
        with conn:
            conn.settimeout(10.0)
            assembler = wire.FrameAssembler()
            sender = threading.Thread(target=conn.sendall, args=(b"".join(frames),))
            sender.start()
            hello = shutdown = False
            while True:
                data = conn.recv(1 << 16)
                if not data:
                    break
                for message in assembler.feed(data):
                    kind, payload = protocol.parse_message(message)
                    if kind == "hello":
                        hello = True
                    else:
                        assert kind == "update"
                        updates.append(payload[0])
                if len(updates) >= expect and not shutdown:
                    shutdown = True
                    conn.sendall(protocol.build_shutdown())
            sender.join(10.0)
        thread.join(10.0)
    assert hello and not thread.is_alive() and not sender.is_alive()
    return updates


def _cuts(frames, pattern):
    lengths = [len(frame) for frame in frames]
    if pattern == "frame_boundaries":  # one recv, one frame
        return lengths
    if pattern == "mid_frame":  # every recv ends inside a frame
        return [lengths[0] // 2] + [
            (before - before // 2) + after // 2
            for before, after in zip(lengths, lengths[1:])
        ]
    if pattern == "crumbs":
        return [997] * (sum(lengths) // 997)
    return []  # "at_once": whatever one recv returns


@pytest.mark.parametrize("pattern", ["frame_boundaries", "mid_frame", "crumbs", "at_once"])
def test_a_block_cut_anywhere_is_trained_once_complete_in_order(
    fed, tmp_path, monkeypatch, pattern
):
    blocks = [[4, 9, 2, 30, 17], [21], [8, 0, 33]]
    reference = _bound_algorithm(fed)
    frames = _task_stream(reference, blocks)
    cohort = [cid for block in blocks for cid in block]
    updates = _worker_session(
        fed, tmp_path, monkeypatch, frames, _cuts(frames, pattern), expect=len(cohort)
    )
    assert [u.client_id for u in updates] == cohort
    expected = [
        u for block in blocks for u in SerialExecutor().run(reference, 1, block)
    ]
    for got, want in zip(updates, expected):
        np.testing.assert_array_equal(got.params, want.params)
        assert (got.task_loss, got.num_steps) == (want.task_loss, want.num_steps)
    # Held until complete, then trained together: one share of the
    # block's wall clock each.
    assert len({u.train_seconds for u in updates[:5]}) == 1
    assert len({u.train_seconds for u in updates[6:]}) == 1


def test_a_stale_task_inside_a_block_makes_the_worker_exit(fed, tmp_path, monkeypatch):
    """A ``serve.seq`` other than the last model frame's is a protocol
    bug wherever in a block it sits: the worker leaves without training
    what it held, and the server's EOF handling redispatches."""
    frames = _task_stream(_bound_algorithm(fed), [[4, 9, 2, 30]], stale=2)
    assert _worker_session(fed, tmp_path, monkeypatch, frames, [], expect=4) == []


def test_a_model_for_a_state_never_installed_makes_the_worker_exit(fed, tmp_path, monkeypatch):
    """A model frame names the shared state it goes with; one naming a
    state this connection did not install is a protocol bug, so the
    worker leaves before any task, even tasks of the installed state."""
    algorithm = _bound_algorithm(fed)
    shared, _rows = algorithm._served_state(algorithm._worker_state([4, 9]))
    frames = [protocol.build_state(shared, 3), protocol.build_model(4, algorithm.global_params)]
    frames += [protocol.build_task(1, pos, cid, 3, 2) for pos, cid in enumerate([4, 9])]
    assert _worker_session(fed, tmp_path, monkeypatch, frames, [], expect=2) == []


# -- (h) hostile slot numbers ----------------------------------------------------------


def test_a_task_naming_a_slot_outside_the_arena_makes_the_worker_exit(fed, tmp_path, monkeypatch):
    """A slot the arena does not have is a protocol bug, like a stale
    ``serve.seq``: the worker leaves without training what it held."""
    algorithm = _bound_algorithm(fed, **WIRE["compressed"])
    arena = RowArena.for_algorithm(algorithm, 4)
    shared, _rows = algorithm._served_state(algorithm._worker_state([4, 9]))
    frames = [protocol.build_state(shared, 3), protocol.build_model(3, algorithm.global_params)]
    frames += [
        protocol.build_task(1, pos, cid, 3, 2, slot, 0)
        for pos, cid, slot in [(0, 4, 0), (1, 9, arena.slots)]
    ]
    assert _worker_session(
        fed, tmp_path, monkeypatch, frames, [], expect=2, algorithm=algorithm, arena=arena
    ) == []


def test_an_update_naming_another_connections_slot_drops_its_connection(fed, tmp_path, monkeypatch):
    """One worker's first update names the slot a block of the other
    connection holds: the server drops that connection (its worker is
    reaped), redispatches what it held, and nobody can tell."""
    config = _config(**WIRE["compressed"])
    serial = _run("fedavg", fed, config)
    server_pid, real_build = os.getpid(), protocol.build_update

    def build(update, slot=None):
        if os.getpid() != server_pid and slot is not None:
            try:  # exactly one worker forges, once
                os.close(os.open(str(tmp_path / "forged"), os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                pass
            else:  # the first two blocks hold slots 0-15 and 16-31
                slot = int(slot) ^ COHORT_BLOCK
        return real_build(update, slot)

    monkeypatch.setattr(protocol, "build_update", build)
    tracer = Tracer()
    served = _serve("fedavg", fed, config, tracer=tracer)
    assert (tmp_path / "forged").exists()
    assert_equivalent_runs(serial, served)
    counters = _counters(tracer, "serve.")
    assert counters["serve.disconnects"] == 1 and counters["serve.redispatches"] >= 1


class _Collecting(ServeExecutor):
    """Holds a whole wave before the round commits any of it, as the
    async engine's drains and a traced bench job do."""

    def stream(self, algorithm, round_idx, regions):
        yield from list(super().stream(algorithm, round_idx, regions))


def test_a_collected_wave_keeps_its_residuals_while_slots_are_reused(fed):
    """Two slots for a 40-client wave: each is reused many times before
    the round commits, so a held update's residual must be its own copy,
    not a view of a slot a later client wrote."""
    config = _config(**WIRE["compressed"])
    serial = _run("fedavg", fed, config)
    served = _serve("fedavg", fed, config, executor=_Collecting(2, max_inflight=2))
    assert_equivalent_runs(serial, served)


# -- (c) a worker dies holding half a block ------------------------------------------


def _die_once(monkeypatch, tmp_path, when: str, after: int) -> None:
    """The first worker to have ``received`` / ``answered`` ``after``
    task frames exits on the spot (no shutdown, no goodbye)."""
    server_pid = os.getpid()
    seen = [0]

    def maybe_die():
        if os.getpid() == server_pid:
            return
        seen[0] += 1
        if seen[0] != after + (when == "answered"):
            return
        try:  # exactly one worker wins the race to create it
            os.close(os.open(str(tmp_path / "died"), os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            return
        os._exit(1)

    real_parse, real_build = protocol.parse_message, protocol.build_update

    def parse(message):
        kind, payload = real_parse(message)
        if when == "received" and kind == "task":
            maybe_die()
        return kind, payload

    def build(update, slot=None):
        if when == "answered":  # the frames built before this one were sent whole
            maybe_die()
        return real_build(update, slot)

    monkeypatch.setattr(protocol, "parse_message", parse)
    monkeypatch.setattr(protocol, "build_update", build)


@pytest.mark.parametrize("wire_name", sorted(WIRE))
@pytest.mark.parametrize("when", ["received", "answered"])
def test_worker_killed_mid_block_is_recut_into_new_blocks(
    fed, tmp_path, monkeypatch, served_rounds, when, wire_name
):
    config = _config(**WIRE[wire_name])
    serial = _run("fedavg", fed, config)
    after = 5  # inside its first block, be that a full one or the short one
    _die_once(monkeypatch, tmp_path, when, after)
    tracer = Tracer()
    served = _serve("fedavg", fed, config, tracer=tracer)
    assert (tmp_path / "died").exists()
    assert_equivalent_runs(serial, served)

    counters = _counters(tracer, "serve.")
    answered = after if when == "answered" else 0
    # Everything the dead connection still held went out again — at
    # least the rest of the block it died in — in blocks of their own.
    assert counters["serve.redispatches"] >= CLIENTS % COHORT_BLOCK - answered
    assert counters["serve.task_blocks"] > -(-CLIENTS // COHORT_BLOCK) * ROUNDS
    assert counters["serve.disconnects"] == 1
    assert "serve.duplicate_updates" not in counters
    # Every position filled once, by the client it was cut for.
    for updates in served_rounds:
        assert [u.client_id for u in updates] == list(range(CLIENTS))
    survivors = {u.worker for u in served_rounds[0]}
    assert len(survivors) == 1 + (when == "answered")


# -- (d) the client cap also bounds a block --------------------------------------------


@pytest.mark.parametrize("cap", [1, 5])
def test_max_inflight_below_a_block_equals_serial(fed, cap):
    config = _config(seed=62)
    serial = _run("fedavg", fed, config)
    tracer = Tracer()
    served = _serve(
        "fedavg", fed, config, tracer=tracer, executor=ServeExecutor(2, max_inflight=cap)
    )
    assert_equivalent_runs(serial, served)
    sizes = {span.attrs["block"] for span in tracer.find("local_train")}
    assert max(sizes) <= cap
    if cap == 1:  # one client per task, as before blocks existed
        assert _counters(tracer, "serve.")["serve.task_blocks"] == CLIENTS * ROUNDS
        assert "executor.stacked_blocks" not in _counters(tracer)


# -- (f) strict dense reconciliation, block or not -------------------------------------


def test_dense_blocks_reconcile_exactly(fed):
    tracer = Tracer()
    algorithm, _history = _serve("fedavg", fed, _config(seed=64), tracer=tracer)
    counters = _counters(tracer, "serve.")
    assert counters["serve.bytes_wire_down"] == counters["serve.bytes_ledger_down"]
    assert counters["serve.bytes_wire_up"] == counters["serve.bytes_ledger_up"]
    assert "serve.reconcile_mismatches" not in counters
    # One dense model per client each way, block frames or not.
    per_direction = algorithm.model_size * 8 * CLIENTS * ROUNDS
    assert counters["serve.bytes_wire_down"] == per_direction
    assert counters["serve.bytes_wire_up"] == per_direction
