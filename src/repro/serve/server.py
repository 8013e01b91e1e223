"""The worker engine: a selector loop over socket-connected worker processes.

:class:`ServeExecutor` is the one multi-process
:class:`~repro.fl.parallel.ClientExecutor`, so the ordinary trainer loop
*is* the federated server — selection, commit order, aggregation,
checkpointing and crash-resume all come from the round decomposition;
this engine only changes where the per-client work runs: in N forked
worker processes reached over Unix-domain or TCP sockets speaking
length-prefixed RFW1 frames.  ``executor='process'`` forks them locally
over an ephemeral Unix socket; ``execution='serve'`` does the same, or
listens where ``serve_addr`` says.

One round, from the server's seat:

1. Pack each state the wave's groups train on once, and each group's
   model once — as pieces (:func:`repro.fl.wire.pack_parts`), never
   joined.  A group (:func:`repro.fl.parallel.wave_group`) is a
   hierarchical region, and all of those share one sequence-numbered
   frame of the live state for the union of their cohorts, or an async
   dispatch round, which carries its round index and recorded
   ``_worker_state`` snapshot.  A model frame names its state's seq.
2. Queue the wave's dispatch units
   (:func:`repro.fl.parallel.dispatch_units`) on the
   :class:`~repro.serve.schedule.WaveSchedule`, numbering each group's
   frames apart: its docstring states which block goes to which
   connection, after its group's frames or not, and names the scripted
   test of each rule.
3. Drive a non-blocking :mod:`selectors` loop — accept late workers,
   flush bounded per-connection write queues, reassemble frames from
   partial reads — that turns socket events into the schedule's
   ``hello`` / ``update`` / ``dead`` and each of its sends into frames
   queued on one connection: where the schedule asks for the group's
   frames, the shared state (unless the connection installed it last)
   and the group's model, then the block's ``task`` frames.  Updates are
   yielded from the loop as the contiguous prefix of positions that
   have arrived grows, so the round commits them while workers train.
   A dead connection's worker is joined, so the next wave forks its
   replacement.  When every worker is gone, or nothing makes progress
   for ``timeout`` seconds, the engine degrades to in-process
   serial execution with one :class:`RuntimeWarning`; the clients the
   wave has not yet yielded finish in process.
4. After the round, socket-level model-payload bytes are reconciled
   against what the :class:`~repro.fl.comm.CommLedger` charges (see
   :meth:`ServeExecutor._reconcile`), so the ledger's byte counts hold
   on a real wire.

Per-request latency lands in the ``serve.request_latency_sec`` quantile
metric (p50/p95/p99 in ``summary.json``), traffic and connection
counters under ``serve.*``.
"""

from __future__ import annotations

import multiprocessing
import os
import selectors
import socket
import tempfile
import time
import warnings
import weakref
from collections import deque
from dataclasses import dataclass, field

from repro.algorithms.base import COHORT_BLOCK
from repro.exceptions import ConfigError, ProtocolError
from repro.fl.parallel import (
    ClientExecutor, SerialExecutor, dispatch_units, speedup, wave_group,
)
from repro.fl.wire import FrameAssembler
from repro.obs import sysinfo
from repro.serve import protocol
from repro.serve.arena import RowArena
from repro.serve.schedule import WaveSchedule

RECV_CHUNK = 1 << 16
POLL_SEC = 0.05


class ServeError(RuntimeError):
    """A serving-loop failure (worker loss, stall) that triggers the
    degrade-to-serial fallback rather than killing the run."""


class _Conn:
    """Per-connection state: its bytes, and the worker that said hello on it."""

    __slots__ = ("sock", "assembler", "outq", "out_bytes", "proc", "state_seq")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.assembler = FrameAssembler()
        self.outq: deque[memoryview] = deque()
        self.out_bytes = 0
        self.proc = None
        self.state_seq = None  # the shared state last queued on it


@dataclass
class _RoundStats:
    """Socket-side accounting for one served round."""

    sent_bytes: int = 0
    recv_bytes: int = 0
    down_model_bytes: int = 0
    up_model_bytes: int = 0
    redispatch_bytes: int = 0
    redispatches: int = 0
    disconnects: int = 0
    duplicates: int = 0
    connects: int = 0
    worker_retries: int = 0
    latencies: list = field(default_factory=list)
    state_bytes: int = 0  # the wave's state and model frames, each counted once
    arena_bytes: int = 0  # own rows copied into the arena, residual rows read out
    blocks: list = field(default_factory=list)  # the schedule's, as dispatched


class ServeExecutor(ClientExecutor):
    """Run selected clients in socket-connected worker processes.

    Args:
        num_workers: worker processes to fork.
        addr: ``serve_addr`` spec (``'tcp:HOST:PORT'`` / ``'uds:PATH'``)
            or ``None`` for an ephemeral Unix-domain socket.
        timeout: stall deadline (seconds), reset on any socket progress;
            also the worker-side socket timeout.
        retries / backoff: worker-side connect/write retry policy.
        max_inflight: dispatched-but-unfinished client cap
            (``None`` = two blocks a worker, ``2 * num_workers *
            COHORT_BLOCK``); also bounds a block, so ``1`` hands a
            worker one client at a time.
        queue_bytes: per-connection outbound queue bound; a connection
            at or over it receives no new block until it drains (one
            block may always be queued so progress never deadlocks).
        name: ``'serve'`` or ``'process'``, the mode the engine was
            built for.

    :meth:`from_config` reads ``num_workers``, ``addr`` and ``name``
    from an :class:`~repro.fl.config.FLConfig`; the rest keep their
    defaults unless the engine is built here and attached with
    ``algorithm.with_executor``.
    """

    def __init__(
        self,
        num_workers: int,
        addr: str | None = None,
        timeout: float = 30.0,
        retries: int = 5,
        backoff: float = 0.05,
        max_inflight: int | None = None,
        queue_bytes: int = 8 << 20,
        name: str = "serve",
    ) -> None:
        if num_workers < 1:
            raise ConfigError(f"num_workers must be >= 1, got {num_workers}")
        self.name = name
        self.num_workers = int(num_workers)
        self.addr_spec = addr
        self.timeout = float(timeout)
        self.retries = int(retries)
        self.backoff = float(backoff)
        self.max_inflight = (
            2 * self.num_workers * COHORT_BLOCK
            if max_inflight is None
            else int(max_inflight)
        )
        self.queue_bytes = int(queue_bytes)
        self._fallback: SerialExecutor | None = None
        self._listener: socket.socket | None = None
        self._selector: selectors.BaseSelector | None = None
        self._resolved: tuple[str, object] | None = None
        self._uds_dir: str | None = None
        self._conns: dict[int, _Conn] = {}
        self._procs: list = []
        self._bound = None  # weakref to the algorithm forked into workers
        self._seq = 0
        self._next_worker_id = 0
        self._schedule = WaveSchedule(self.max_inflight)
        self._arena: RowArena | None = None  # mapped before the first fork

    @classmethod
    def from_config(cls, config) -> "ServeExecutor":
        return cls(
            num_workers=config.num_workers,
            addr=config.serve_addr,
            name="serve" if config.execution == "serve" else "process",
        )

    # -- degradation ---------------------------------------------------------------
    @property
    def degraded(self) -> bool:
        """True once the engine has fallen back to in-process execution."""
        return self._fallback is not None

    def _degrade(self, reason: str) -> SerialExecutor:
        self._shutdown_serving()
        warnings.warn(
            f"socket client serving disabled ({reason}); "
            "continuing with in-process serial execution",
            RuntimeWarning,
            stacklevel=3,
        )
        self._fallback = SerialExecutor()
        return self._fallback

    # -- lifecycle -----------------------------------------------------------------
    def _open_listener(self) -> None:
        if self.addr_spec is None:
            self._uds_dir = tempfile.mkdtemp(prefix="repro-serve-")
            kind, addr = "uds", os.path.join(self._uds_dir, "serve.sock")
        else:
            kind, addr = protocol.parse_serve_addr(self.addr_spec)
        if kind == "tcp":
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind(addr)
            self._resolved = ("tcp", sock.getsockname()[:2])
        else:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            if os.path.exists(addr):
                os.unlink(addr)
            sock.bind(addr)
            self._resolved = ("uds", addr)
        sock.listen(self.num_workers + 8)
        sock.setblocking(False)
        self._listener = sock
        self._selector = selectors.DefaultSelector()
        self._selector.register(sock, selectors.EVENT_READ, None)

    def _ensure_serving(self, algorithm) -> None:
        """Bind the listener and fork workers (or re-fork on rebinds)."""
        bound = self._bound() if self._bound is not None else None
        if self._listener is not None and bound is not algorithm:
            self._shutdown_serving()
        if self._listener is None:
            self._open_listener()
            self._bound = weakref.ref(algorithm)
            self._arena = RowArena.for_algorithm(algorithm, self.max_inflight)
        self._procs = [p for p in self._procs if p.is_alive()]
        missing = self.num_workers - len(self._procs)
        if missing <= 0:
            return
        from repro.serve.worker import worker_main

        context = multiprocessing.get_context("fork")
        # Children close every fd inherited from this process (the
        # listener plus any already-accepted connections) so a worker's
        # death always reads as EOF to the server and vice versa.
        inherited = (self._listener, *[c.sock for c in self._conns.values()])
        for _ in range(missing):
            self._next_worker_id += 1
            proc = context.Process(
                target=worker_main,
                args=(
                    algorithm, self._resolved, self._next_worker_id,
                    self.timeout, self.retries, self.backoff, inherited, self._arena,
                ),
                daemon=True,
                name=_worker_name(self._next_worker_id),
            )
            proc.start()
            self._procs.append(proc)

    def _shutdown_serving(self) -> None:
        for conn in list(self._conns.values()):
            try:
                conn.sock.setblocking(True)
                conn.sock.settimeout(1.0)
                # Drain any half-sent frame first; a shutdown frame
                # spliced mid-frame would tear the worker's stream.
                while conn.outq:
                    conn.sock.sendall(conn.outq.popleft())
                conn.sock.sendall(protocol.build_shutdown())
            except OSError:
                pass
            self._close_conn(conn)
        if self._selector is not None:
            self._selector.close()
            self._selector = None
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        for proc in self._procs:
            _reap(proc, grace=5.0)
        self._procs = []
        self._schedule = WaveSchedule(self.max_inflight)
        if self._uds_dir is not None:
            try:
                sock_path = os.path.join(self._uds_dir, "serve.sock")
                if os.path.exists(sock_path):
                    os.unlink(sock_path)
                os.rmdir(self._uds_dir)
            except OSError:
                pass
            self._uds_dir = None
        self._resolved = None
        self._bound = None
        self._arena = None

    def close(self) -> None:
        self._shutdown_serving()

    # -- connection plumbing ---------------------------------------------------------
    def _close_conn(self, conn: _Conn) -> None:
        if self._selector is not None:
            try:
                self._selector.unregister(conn.sock)
            except (KeyError, ValueError):
                pass
        fd = conn.sock.fileno()  # -1 once closed
        try:
            conn.sock.close()
        except OSError:
            pass
        self._conns.pop(fd, None)

    def _accept(self, stats: _RoundStats) -> None:
        assert self._listener is not None and self._selector is not None
        while True:
            try:
                sock, _addr = self._listener.accept()
            except (BlockingIOError, OSError):
                return
            sock.setblocking(False)
            if sock.family == socket.AF_INET:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _Conn(sock)
            self._conns[sock.fileno()] = conn
            self._selector.register(sock, selectors.EVENT_READ, conn)
            stats.connects += 1

    def _queue(self, conn: _Conn, frame: tuple, stats: _RoundStats) -> None:
        """Queue one ``(length, pieces)`` frame.  The pieces are shared,
        never copied: every connection's queue holds views of the same
        memory, and a partial send only re-slices this queue's view."""
        length, pieces = frame
        conn.outq.extend(pieces)
        conn.out_bytes += length
        self._flush(conn, stats)
        self._update_events(conn)

    def _flush(self, conn: _Conn, stats: _RoundStats) -> bool:
        """Write queued bytes; returns True when the connection broke."""
        try:
            while conn.outq:
                head = conn.outq[0]
                sent = conn.sock.send(head)
                stats.sent_bytes += sent
                conn.out_bytes -= sent
                if sent < head.nbytes:
                    conn.outq[0] = head[sent:]
                    break
                conn.outq.popleft()
        except BlockingIOError:
            pass
        except OSError:
            return True
        return False

    def _update_events(self, conn: _Conn) -> None:
        if self._selector is None:
            return
        events = selectors.EVENT_READ
        if conn.outq:
            events |= selectors.EVENT_WRITE
        try:
            self._selector.modify(conn.sock, events, conn)
        except (KeyError, ValueError, OSError):
            pass

    def _read(self, conn: _Conn, stats: _RoundStats) -> tuple[bool, list[bytearray]]:
        """Drain readable bytes; returns ``(closed, complete_frames)``."""
        closed = False
        frames: list[bytearray] = []
        try:
            while True:
                data = conn.sock.recv(RECV_CHUNK)
                if not data:
                    closed = True
                    break
                stats.recv_bytes += len(data)
                frames.extend(conn.assembler.feed(data))
                if len(data) < RECV_CHUNK:
                    break
        except BlockingIOError:
            pass
        except OSError:
            closed = True
        return closed, frames

    def _unhelloed(self) -> int:
        """Live forked workers that have not said hello on an open connection."""
        helloed = {conn.proc for conn in self._conns.values()}
        return sum(proc not in helloed and proc.is_alive() for proc in self._procs)

    def _drop_conn(self, conn: _Conn, stats: _RoundStats) -> None:
        """Close a broken connection: its worker is reaped, so the next
        wave forks a replacement and none of its arena slots has a live
        writer, and only then does the schedule requeue what it held."""
        stats.disconnects += 1
        self._close_conn(conn)
        if conn.proc in self._procs:
            _reap(conn.proc, grace=1.0)
            self._procs.remove(conn.proc)
        self._schedule.dead(conn)

    # -- the round -------------------------------------------------------------------
    def _serve_round(self, algorithm, groups: list[tuple], stats: _RoundStats):
        """One wave over every group's clients: ``groups`` holds
        ``(client_ids, model, round, state)`` (:func:`wave_group`).
        Yields ``(position, update)`` in input order (groups
        concatenated): the contiguous prefix of positions whose updates
        have arrived, released from the selector loop as it grows, while
        ``stats`` gathers the wave's socket accounting."""
        self._ensure_serving(algorithm)
        assert self._selector is not None
        # One state frame a state the groups carry (a group shares it
        # with every group that carries the same), and one for the live
        # state of the rest, over the union of their ids; and one model
        # frame a group, numbered apart, so the schedule asks for it on
        # every switch of group.  WireError here (inexpressible round
        # state) propagates to stream(), which degrades — there is no
        # pickled state transport over sockets.
        live_ids = [cid for group_ids, *_g, state in groups if state is None for cid in group_ids]
        seq_of: dict[int | None, int] = {}  # id(state), None for the live state -> seq
        state_frames: dict[int, tuple] = {}  # seq -> state frame
        task_rows: dict[int, dict] = {}  # seq -> {client: its own rows}
        seqs, numbers, model_frames = [], [], []  # each group's state seq, number, model frame
        for group_ids, model, _round, state in groups:
            key = None if state is None else id(state)
            if group_ids and key not in seq_of:
                self._seq += 1
                seq_of[key] = self._seq
                shared, task_rows[self._seq] = algorithm._served_state(
                    algorithm._worker_state(live_ids) if state is None else state
                )
                state_frames[self._seq] = protocol.state_parts(shared, self._seq)
            seqs.append(seq_of.get(key))
            self._seq += 1
            numbers.append(self._seq)
            model_frames.append(protocol.model_parts(seq_of[key], model) if group_ids else None)
        stats.state_bytes = sum(
            frame[0] for frame in [*state_frames.values(), *model_frames] if frame is not None
        )
        for conn in list(self._conns.values()):
            if self._flush(conn, stats):  # broke while draining old bytes
                self._drop_conn(conn, stats)

        schedule = self._schedule
        arena = self._arena
        slot_of: dict[int, int] = {}  # position -> its arena slot, dispatch to answer
        schedule.begin_wave(dispatch_units(algorithm, groups), numbers)
        stats.blocks = schedule.blocks
        results: dict[int, object] = {}  # arrived, not yet released
        released = 0
        dispatch_time: dict[int, float] = {}
        deadline = time.monotonic() + self.timeout

        while schedule.remaining or results:
            if released in results:
                # The consumer commits each update before the loop goes
                # on; workers keep training meanwhile.
                while released in results:
                    yield released, results.pop(released)
                    released += 1
                deadline = time.monotonic() + self.timeout
                continue
            while True:
                room = [  # an empty queue, or one under its bound, takes a block
                    c for c in self._conns.values() if not c.outq or c.out_bytes < self.queue_bytes
                ]
                send = schedule.next_send(room, self._unhelloed())
                if send is None:
                    break
                _ids, model, group_round, _state = groups[send.group]
                seq = seqs[send.group]
                if send.state is not None:
                    if send.conn.state_seq != seq:
                        self._queue(send.conn, state_frames[seq], stats)
                        send.conn.state_seq = seq
                    self._queue(send.conn, model_frames[send.group], stats)
                for pos, cid in send.slots:
                    slot, filled = None, 0
                    if arena is not None:  # a redispatch re-copies the rows
                        slot = slot_of.get(pos)
                        if slot is None:
                            slot = slot_of[pos] = arena.acquire()
                        filled, copied = arena.fill(slot, task_rows[seq].get(cid, {}))
                        stats.arena_bytes += copied
                    task = protocol.task_parts(
                        group_round, pos, cid, seq, len(send.slots), slot, filled
                    )
                    if send.redispatch:
                        stats.redispatch_bytes += model.nbytes
                        stats.redispatches += 1
                    else:
                        stats.down_model_bytes += model.nbytes
                    self._queue(send.conn, task, stats)
                    dispatch_time[pos] = time.monotonic()
                deadline = time.monotonic() + self.timeout

            if not self._conns and not any(p.is_alive() for p in self._procs):
                raise ServeError("every serve worker process exited")
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServeError(
                    f"no progress for {self.timeout:.1f}s with "
                    f"{schedule.remaining} clients outstanding"
                )
            for key, mask in self._selector.select(min(POLL_SEC, remaining)):
                if key.data is None:
                    self._accept(stats)
                    deadline = time.monotonic() + self.timeout
                    continue
                conn = key.data
                if mask & selectors.EVENT_WRITE:
                    if self._flush(conn, stats):
                        self._drop_conn(conn, stats)
                        continue
                    self._update_events(conn)
                if not (mask & selectors.EVENT_READ):
                    continue
                closed, messages = self._read(conn, stats)
                for message in messages:
                    deadline = time.monotonic() + self.timeout
                    msg_kind, payload = protocol.parse_message(message)
                    if msg_kind == "hello":
                        name = _worker_name(int(payload["serve.worker"]))
                        conn.proc = next((p for p in self._procs if p.name == name), None)
                        schedule.hello(conn)
                        stats.worker_retries += max(0, int(payload.get("serve.attempts", 1)) - 1)
                    elif msg_kind == "update":
                        update, slot = payload
                        pos = schedule.position(conn, update.client_id)
                        if pos is None:
                            stats.duplicates += 1
                            continue
                        if slot != slot_of.get(pos):
                            # A slot this position does not hold (out of
                            # range, another connection's): drop the
                            # connection, as a worker drops a stale task.
                            closed = True
                            break
                        schedule.update(conn, update.client_id)
                        if arena is not None:
                            # The whole frame is in, so the worker is done
                            # with the slot: copy its residual out, free it.
                            if arena.residual_index is not None:
                                update.residual = arena.read_residual(slot)
                                stats.arena_bytes += update.residual.nbytes
                            arena.release(slot_of.pop(pos))
                        results[pos] = update
                        stats.up_model_bytes += protocol.update_model_bytes(update)
                        stats.latencies.append(time.monotonic() - dispatch_time[pos])
                    else:
                        raise ServeError(f"unexpected {msg_kind!r} message from a worker")
                if closed:
                    self._drop_conn(conn, stats)

    # -- execution -------------------------------------------------------------------
    def stream(self, algorithm, round_idx: int, regions):
        """Every group's clients in one wave (see the module docstring),
        yielded as ``(group, update)`` in input order.  A failure the
        engine cannot route around degrades it mid-wave: the clients not
        yet yielded finish in process, and none is yielded twice."""
        if self._fallback is not None:
            yield from self._fallback.stream(algorithm, round_idx, regions)
            return
        groups = [wave_group(round_idx, region) for region in regions]
        group_of = [group for group, (ids, *_g) in enumerate(groups) for _cid in ids]
        if not group_of:
            return
        refusal = sysinfo.fork_refusal()
        if refusal is not None:
            self._degrade(refusal)
            yield from self._fallback.stream(algorithm, round_idx, regions)
            return
        stats = _RoundStats()
        updates = []  # the wave's records, as the consumer leaves them
        elapsed = 0.0  # the engine's, not the time the consumer holds the stream
        wave = self._serve_round(algorithm, groups, stats)
        finished = False
        try:
            while True:
                started = time.perf_counter()
                try:
                    position, update = next(wave)
                except StopIteration:
                    break
                except Exception as exc:  # worker loss, stall, socket or wire failure
                    self._degrade(f"socket serving failed: {exc!r}")
                    yield from self._fallback.stream(
                        algorithm, round_idx, _unreleased(groups, len(updates))
                    )
                    return
                elapsed += time.perf_counter() - started
                updates.append(update)
                yield group_of[position], update
            finished = True
        finally:
            if not finished and self._arena is not None:
                # Abandoned mid-wave: its workers may still write their
                # arena slots, so none is free until they are gone.
                self._shutdown_serving()
        elapsed += time.perf_counter() - started
        self._record_metrics(algorithm.tracer, updates, stats, elapsed)
        # Reconciliation runs OUTSIDE the degrade path: a byte-accounting
        # mismatch is a correctness signal that must surface, not a
        # transient fault to paper over with a serial rerun.
        self._reconcile(algorithm, updates, stats, len(updates))

    def spare_slots(self, units: int) -> int:
        """Worker slots a wave of ``units`` leaves idle in its last turn
        (``(-units) mod num_workers``; a dead worker is re-forked at the
        next call); none once degraded."""
        return 0 if self.degraded else -units % self.num_workers

    # -- observability & reconciliation ------------------------------------------------
    def _record_metrics(self, tracer, updates, stats: _RoundStats, elapsed: float) -> None:
        """Per-round telemetry.  A round the workers made *slower* (busy
        time below wall time; ``docs/parallelism.md``) gets a
        ``parallel_hint`` span and ``parallel.slowdown_rounds``: an
        obs-layer signal, not a warning, so test runs stay quiet."""
        if not tracer.enabled:
            return
        # A position's last dispatch is the block that answered it.
        block_size = {
            pos: len(slots) for _r, _refusal, slots in stats.blocks for pos, _cid in slots
        }
        for pos, update in enumerate(updates):
            with tracer.span(
                "local_train", client=update.client_id, worker=update.worker,
                block=block_size[pos],
            ) as span:
                pass
            span.duration = update.train_seconds
        metrics = tracer.metrics
        # What the workers' serial engines did with the blocks they were
        # handed (workers run untraced), with each refused block's reason.
        SerialExecutor.count_blocks(
            metrics,
            [([cid for _pos, cid in slots], refusal) for _r, refusal, slots in stats.blocks],
        )
        metrics.counter("serve.task_blocks").inc(len(stats.blocks))
        metrics.gauge("serve.workers").set(sum(1 for p in self._procs if p.is_alive()))
        metrics.gauge("serve.connections").set(len(self._conns))
        metrics.counter("serve.rounds").inc()
        metrics.counter("serve.bytes_sent").inc(stats.sent_bytes)
        metrics.counter("serve.bytes_received").inc(stats.recv_bytes)
        metrics.counter("serve.state_bytes").inc(stats.state_bytes)
        if stats.arena_bytes:
            metrics.counter("serve.arena_bytes").inc(stats.arena_bytes)
        for name, count in (
            ("serve.connects", stats.connects),
            ("serve.disconnects", stats.disconnects),
            ("serve.redispatches", stats.redispatches),
            ("serve.duplicate_updates", stats.duplicates),
            ("serve.connect_retries", stats.worker_retries),
        ):
            if count:
                metrics.counter(name).inc(count)
        request_latency = metrics.quantile("serve.request_latency_sec")
        for latency in stats.latencies:
            request_latency.observe(latency)
        metrics.quantile("serve.round_latency_sec").observe(elapsed)
        if elapsed > 0 and updates:
            ratio = speedup(updates, elapsed)
            metrics.gauge("serve.speedup").set(ratio)
            if ratio < 1.0:
                metrics.counter("parallel.slowdown_rounds").inc()
                with tracer.span(
                    "parallel_hint",
                    speedup=round(ratio, 3),
                    hint="worker overhead exceeds parallel gain; "
                    "consider executor='serial' on this machine",
                ):
                    pass

    def _reconcile(self, algorithm, updates, stats: _RoundStats, num_clients: int) -> None:
        """Check socket-level model bytes against the ledger's charges
        (``docs/serving.md``, "Byte reconciliation"): exact for runs
        without a compressor, where drift raises :class:`ProtocolError`,
        and counted in ``serve.reconcile_mismatches`` otherwise.  Redispatched
        tasks are not ledger-charged (``serve.redispatch_bytes``)."""
        ledger = algorithm.ledger
        if ledger is None:
            return
        dtype_bytes = int(ledger.dtype_bytes)
        expected_down = int(algorithm.model_size) * num_clients * dtype_bytes
        expected_up = sum(u.wire_size.nbytes(dtype_bytes) for u in updates)
        metrics = algorithm.tracer.metrics
        metrics.counter("serve.bytes_ledger_down").inc(expected_down)
        metrics.counter("serve.bytes_ledger_up").inc(expected_up)
        metrics.counter("serve.bytes_wire_down").inc(stats.down_model_bytes)
        metrics.counter("serve.bytes_wire_up").inc(stats.up_model_bytes)
        if stats.redispatch_bytes:
            metrics.counter("serve.redispatch_bytes").inc(stats.redispatch_bytes)
        matched = (
            expected_down == stats.down_model_bytes
            and expected_up == stats.up_model_bytes
        )
        if matched:
            return
        if algorithm.compressor is None:
            raise ProtocolError(
                "serve-mode byte accounting drifted from the ledger: "
                f"down wire={stats.down_model_bytes} vs ledger={expected_down}, "
                f"up wire={stats.up_model_bytes} vs ledger={expected_up} "
                f"({num_clients} clients, model_size={algorithm.model_size}, "
                f"dtype_bytes={dtype_bytes})"
            )
        metrics.counter("serve.reconcile_mismatches").inc()


def _unreleased(groups: list[tuple], released: int) -> list[tuple]:
    """``groups`` without the first ``released`` positions (groups
    concatenated): what a wave degraded mid-way still owes, group by
    group, each group's state kept."""
    rest = []
    for client_ids, *group in groups:
        taken = min(released, len(client_ids))
        released -= taken
        rest.append((client_ids[taken:], *group))
    return rest


def _worker_name(worker_id: int) -> str:
    return f"repro-serve-worker-{worker_id}"


def _reap(proc, grace: float) -> None:
    """Join a worker process, terminating it after ``grace`` seconds."""
    proc.join(timeout=grace)
    if proc.is_alive():
        proc.terminate()
        proc.join(timeout=1.0)
    if proc.is_alive():
        proc.kill()
        proc.join()
