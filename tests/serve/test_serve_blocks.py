"""Block-dispatched task frames: a serve worker trains the block it was
handed, through the serial engine.

The server queues the serial engine's blocks (at most ``COHORT_BLOCK``
clients; a block ``stack_refusal`` refuses goes out one client a block)
and a block's ``task`` frames go back to back on one connection; the
worker holds them until the block is complete and
runs :func:`repro.fl.parallel.run_held_clients` — stacked where
``stack_refusal`` has no objection, one by one where it has.  Nobody can
tell from the numbers: every served run here equals the serial run
exactly, whatever the block size, however the frames were cut on their
way in, and whichever worker died holding half of one.
"""

from __future__ import annotations

import os
import socket
import threading
import time
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


def _run(name, fed, config, model="mlp", tracer=None):
    algorithm = make_algorithm(name)
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
    """The update list of every served round, as ``ServeExecutor.run``
    returned it."""
    rounds, real_run = [], ServeExecutor.run

    def recording(self, algorithm, round_idx, client_ids):
        rounds.append(real_run(self, algorithm, round_idx, client_ids))
        return rounds[-1]

    monkeypatch.setattr(ServeExecutor, "run", recording)
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


def _bound_algorithm(fed):
    algorithm = make_algorithm("fedavg")
    algorithm.setup(build_model("mlp", fed.spec, seed=2, scale=0.25), fed, _config())
    return algorithm


def _task_stream(algorithm, blocks, seq=3, round_idx=1, stale=None):
    """The frames of one round for one worker: its state, then each
    block's tasks back to back.  ``stale`` gives one position another
    sequence number."""
    cohort = [cid for block in blocks for cid in block]
    frames = [protocol.build_state(algorithm._worker_state(cohort), seq)]
    position = 0
    for block in blocks:
        for cid in block:
            frames.append(
                protocol.build_task(
                    round_idx, position, cid, seq + (position == stale), len(block),
                    algorithm.global_params,
                )
            )
            position += 1
    return frames


def _worker_session(fed, tmp_path, monkeypatch, frames, cuts, expect):
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
            args=(_bound_algorithm(fed), ("uds", path), 1, 10.0, 2, 0.01),
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
                        updates.append(payload)
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
    """A ``serve.seq`` other than the installed state's is a protocol
    bug wherever in a block it sits: the worker leaves without training
    what it held, and the server's EOF handling redispatches."""
    frames = _task_stream(_bound_algorithm(fed), [[4, 9, 2, 30]], stale=2)
    assert _worker_session(fed, tmp_path, monkeypatch, frames, [], expect=4) == []


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

    def build(update):
        if when == "answered":  # the frames built before this one were sent whole
            maybe_die()
        return real_build(update)

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
    served = _serve("fedavg", fed, config.with_updates(serve_max_inflight=cap), tracer=tracer)
    assert_equivalent_runs(serial, served)
    sizes = {span.attrs["block"] for span in tracer.find("local_train")}
    assert max(sizes) <= cap
    if cap == 1:  # one client per task, as before blocks existed
        assert _counters(tracer, "serve.")["serve.task_blocks"] == CLIENTS * ROUNDS
        assert "executor.stacked_blocks" not in _counters(tracer)


# -- (e) two blocks a connection: a late worker still gets its share -------------------


def _wait_for(path, seconds=10.0) -> None:
    deadline = time.monotonic() + seconds
    while not os.path.exists(path) and time.monotonic() < deadline:
        time.sleep(0.005)


def _stage_late_hello(monkeypatch, tmp_path, early_lag: float = 0.0) -> str:
    """Worker 2 connects only once worker 1 has a task in hand, and
    worker 1 does not start training until worker 2 has one too (and
    ``early_lag`` seconds more).  Returns the file worker 2 creates when
    its first task arrives."""
    early_has_task, late_has_task = str(tmp_path / "early"), str(tmp_path / "late")
    real_main = worker.worker_main

    def staged_main(algorithm, resolved, worker_id, *rest):
        late = worker_id == 2
        real_parse = protocol.parse_message
        first_task = [True]

        def parse(message):
            kind, payload = real_parse(message)
            if kind == "task" and first_task[0]:
                first_task[0] = False
                open(late_has_task if late else early_has_task, "w").close()
                if not late:
                    _wait_for(late_has_task)
                    time.sleep(early_lag)
            return kind, payload

        protocol.parse_message = parse  # this forked child's copy only
        if late:
            _wait_for(early_has_task)
        real_main(algorithm, resolved, worker_id, *rest)

    monkeypatch.setattr(worker, "worker_main", staged_main)
    return late_has_task


def test_a_late_hello_in_round_zero_is_not_left_without_work(
    fed, tmp_path, monkeypatch, served_rounds
):
    """Staged as :func:`_stage_late_hello`.  With the whole round
    offered to whoever says hello first, worker 2 would never see a task
    and worker 1 would sit out its wait."""
    late_has_task = _stage_late_hello(monkeypatch, tmp_path)
    picks = []  # (connections ready, blocks the picked one held)
    real_pick = ServeExecutor._pick_conn

    def recording_pick(self):
        conn = real_pick(self)
        if conn is not None:
            picks.append((sum(c.ready for c in self._conns.values()), conn.blocks_held()))
        return conn

    monkeypatch.setattr(ServeExecutor, "_pick_conn", recording_pick)
    serial = _run("fedavg", fed, _config(seed=63))
    served = _serve("fedavg", fed, _config(seed=63))
    assert_equivalent_runs(serial, served)
    assert os.path.exists(late_has_task)
    # Round 0: the early worker held exactly one block until the late
    # hello; then the late one took the second block, and the early one
    # the third.
    round_zero = picks[: -(-CLIENTS // COHORT_BLOCK)]
    assert [held for ready, held in round_zero if ready == 1] == [0]
    per_worker = Counter(u.worker for u in served_rounds[0])
    assert sorted(per_worker.values()) == [COHORT_BLOCK, CLIENTS - COHORT_BLOCK]


def test_a_two_unit_call_right_after_the_fork_trains_on_two_pids(fed, tmp_path, monkeypatch):
    """The first worker to say hello holds one block until the other
    has said hello too, so the two units of the call that forks the
    workers do not train back to back on one of them."""
    late_has_task = _stage_late_hello(monkeypatch, tmp_path)
    algorithm = make_algorithm("scaffold")  # refuses stacking: one client a unit
    algorithm.setup(build_model("mlp", fed.spec, seed=2, scale=0.25), fed, _config())
    expected = SerialExecutor().run(algorithm, 0, [3, 7])
    executor = ServeExecutor(num_workers=2, name="process")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            updates = executor.run(algorithm, 0, [3, 7])
    finally:
        executor.close()
    assert os.path.exists(late_has_task)
    assert len({update.worker for update in updates}) == 2 and 0 not in {
        update.worker for update in updates
    }
    for got, want in zip(updates, expected):
        np.testing.assert_array_equal(got.params, want.params)


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


# -- (g) one wave, several round states ------------------------------------------------


def test_one_client_in_two_groups_of_a_wave_trains_each_on_its_own_state(
    fed, tmp_path, monkeypatch
):
    """An async drain's wave: the same client in two groups, each with
    its own round and recorded state, on two workers (staged as
    :func:`_stage_late_hello`).  Each group's state frame goes with a
    connection's first block of it, each update fills the position its
    own connection held, and both equal the serial engine's, bit for
    bit.  The second group's worker answers first, so a match by client
    id alone would swap the two."""
    _stage_late_hello(monkeypatch, tmp_path, early_lag=0.3)
    algorithm = make_algorithm("rfedavg+", lam=1e-2)
    algorithm.setup(build_model("mlp", fed.spec, seed=2, scale=0.25), fed, _config())
    early = algorithm._worker_state([3, 5])
    algorithm.global_params = algorithm.global_params + 0.25
    late = algorithm._worker_state([3])
    wave = [([3], early["global_params"], 0, early), ([3], late["global_params"], 1, late)]
    expected = SerialExecutor().run_regions(algorithm, 1, wave)
    executor = ServeExecutor(num_workers=2, name="process")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            served = executor.run_regions(algorithm, 1, wave)
    finally:
        executor.close()
    assert [len(group) for group in served] == [1, 1]
    (first,), (second,) = served
    assert 0 not in {first.worker, second.worker}
    assert first.worker != second.worker
    for (got,), (want,) in zip(served, expected):
        np.testing.assert_array_equal(got.params, want.params)
        assert (got.task_loss, got.reg_loss) == (want.task_loss, want.reg_loss)
    assert not np.array_equal(expected[0][0].params, expected[1][0].params)
