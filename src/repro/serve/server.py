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

1. Pack the algorithm's round state for this round's cohort once — as
   pieces (:func:`repro.fl.wire.pack_parts`), never joined — and queue
   those same pieces to every live connection (sequence-numbered).  A
   hierarchical round (:meth:`ServeExecutor.run_regions`) sends one
   state frame for the union of its regions' cohorts.
2. Queue the serial engine's own blocks (``algorithm.cohort_blocks``,
   cut per region): a block ``stack_refusal`` passes goes out whole, a
   refused one one client per block, so workers balance per-client work
   dynamically.  A block never straddles two regions: every ``task``
   frame carries its region's parameters as ``model``, and the worker
   trains a held block against the last one.
3. Drive a non-blocking :mod:`selectors` loop: accept late workers,
   flush bounded per-connection write queues, reassemble frames from
   partial reads, dispatch the head block (its ``task`` frames queued
   back to back on the least-loaded connection that holds fewer than
   two blocks, cut to what ``serve_max_inflight`` leaves free) which the
   worker trains as the serial engine would, and slot arriving updates
   by client id.
4. A dead connection's unfinished clients are requeued as blocks of
   their own region and redispatched to surviving workers (the
   determinism contract makes any duplicate identical); when every
   worker is gone, or nothing makes progress for ``serve_timeout``
   seconds, the engine degrades to in-process serial execution with one
   :class:`RuntimeWarning`.
5. After the round, socket-level model-payload bytes are reconciled
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

from repro.algorithms.base import COHORT_BLOCK
from repro.exceptions import ConfigError, ProtocolError
from repro.fl.parallel import ClientExecutor, SerialExecutor, speedup
from repro.fl.wire import FrameAssembler
from repro.obs import sysinfo
from repro.serve import protocol

RECV_CHUNK = 1 << 16
POLL_SEC = 0.05


class ServeError(RuntimeError):
    """A serving-loop failure (worker loss, stall) that triggers the
    degrade-to-serial fallback rather than killing the run."""


class _Conn:
    """Per-connection server-side state."""

    __slots__ = ("sock", "assembler", "outq", "out_bytes", "ready", "inflight", "seq")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.assembler = FrameAssembler()
        self.outq: deque[memoryview] = deque()
        self.out_bytes = 0
        self.ready = False  # becomes True on the worker's hello
        self.inflight: dict[int, tuple[int, int]] = {}  # position -> (client_id, block)
        self.seq = -1

    def blocks_held(self) -> int:
        """Dispatched blocks this connection has not finished answering."""
        return len({block for _cid, block in self.inflight.values()})


class _RoundStats:
    """Socket-side accounting for one served round."""

    __slots__ = (
        "sent_bytes", "recv_bytes", "down_model_bytes", "up_model_bytes",
        "redispatch_bytes", "redispatches", "disconnects", "duplicates",
        "connects", "worker_retries", "latencies", "state_bytes", "blocks",
    )

    def __init__(self) -> None:
        self.sent_bytes = 0
        self.recv_bytes = 0
        self.down_model_bytes = 0
        self.up_model_bytes = 0
        self.redispatch_bytes = 0
        self.redispatches = 0
        self.disconnects = 0
        self.duplicates = 0
        self.connects = 0
        self.worker_retries = 0
        self.latencies: list[float] = []
        self.state_bytes = 0  # the round's state frame, sent once per connection
        # Dispatched blocks: (region, stack refusal, [(position, client)]).
        self.blocks: list[tuple[int, str | None, list[tuple[int, int]]]] = []


class ServeExecutor(ClientExecutor):
    """Run selected clients in socket-connected worker processes.

    Args:
        num_workers: worker processes to fork.
        addr: ``serve_addr`` spec (``'tcp:HOST:PORT'`` / ``'uds:PATH'``)
            or ``None`` for an ephemeral Unix-domain socket.
        timeout: stall deadline (seconds), reset on any socket progress.
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

    @classmethod
    def from_config(cls, config) -> "ServeExecutor":
        return cls(
            num_workers=config.num_workers,
            addr=config.serve_addr,
            timeout=config.serve_timeout,
            retries=config.serve_retries,
            backoff=config.serve_backoff,
            max_inflight=config.serve_max_inflight,
            queue_bytes=config.serve_queue_bytes,
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
                    self.timeout, self.retries, self.backoff, inherited,
                ),
                daemon=True,
                name=f"repro-serve-worker-{self._next_worker_id}",
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
        if self._listener is not None:
            if self._selector is not None:
                try:
                    self._selector.unregister(self._listener)
                except (KeyError, ValueError):
                    pass
            self._listener.close()
            self._listener = None
        if self._selector is not None:
            self._selector.close()
            self._selector = None
        for proc in self._procs:
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        self._procs = []
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

    def close(self) -> None:
        self._shutdown_serving()

    # -- connection plumbing ---------------------------------------------------------
    def _close_conn(self, conn: _Conn) -> None:
        if self._selector is not None:
            try:
                self._selector.unregister(conn.sock)
            except (KeyError, ValueError):
                pass
        try:
            conn.sock.close()
        except OSError:
            pass
        self._conns.pop(conn.sock.fileno(), None)
        # fileno() is -1 after close; sweep by identity as the fallback.
        for fd, existing in list(self._conns.items()):
            if existing is conn:
                del self._conns[fd]

    def _accept(self, stats: _RoundStats, state_frame: tuple | None, seq: int) -> None:
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
            if state_frame is not None:
                self._queue(conn, state_frame, stats)
                conn.seq = seq

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

    def _has_capacity(self, conn: _Conn) -> bool:
        return not conn.outq or conn.out_bytes < self.queue_bytes

    def _pick_conn(self) -> _Conn | None:
        """Least-loaded ready connection with outbound queue capacity
        that holds fewer than two blocks (one training, one queued) —
        whatever else is pending waits for the next connection to say
        hello or to finish a block, so a late worker gets its share."""
        best: _Conn | None = None
        for conn in self._conns.values():
            if (
                not conn.ready
                or not self._has_capacity(conn)
                or conn.blocks_held() >= 2
            ):
                continue
            if best is None or len(conn.inflight) < len(best.inflight):
                best = conn
        return best

    # -- the round -------------------------------------------------------------------
    @staticmethod
    def _blocks(algorithm, regions) -> deque[tuple[int, str | None, list[tuple[int, int]]]]:
        """A round's dispatch queue of ``(region, refusal, [(position,
        client)])`` blocks: the serial engine's blocks, region by region
        (positions run on across regions), whole where they stack and
        one client each where ``stack_refusal`` says no."""
        pending: deque[tuple[int, str | None, list[tuple[int, int]]]] = deque()
        position = 0
        for region, (region_ids, _model) in enumerate(regions):
            for block, refusal in algorithm.cohort_blocks(region_ids):
                slots = list(enumerate(block, position))
                position += len(block)
                if refusal is None:
                    pending.append((region, None, slots))
                else:
                    pending.extend((region, refusal, [slot]) for slot in slots)
        return pending

    def _serve_round(self, algorithm, round_idx: int, regions: list[tuple[list[int], object]]):
        """One wave over every region's clients: ``regions`` holds
        ``(client_ids, model)`` pairs.  Returns the updates in input
        order (regions concatenated) and the round's socket stats."""
        self._ensure_serving(algorithm)
        assert self._selector is not None
        stats = _RoundStats()
        self._seq += 1
        seq = self._seq
        ids = [cid for region_ids, _model in regions for cid in region_ids]
        # WireError here (inexpressible round state) propagates to
        # run_regions(), which degrades — there is no pickled state
        # transport over sockets.
        state_frame = protocol.state_parts(algorithm._worker_state(ids), seq)
        stats.state_bytes = state_frame[0]
        for conn in list(self._conns.values()):
            if self._flush(conn, stats):  # broke while draining old bytes
                self._drop_conn(conn, None, stats)
                continue
            self._queue(conn, state_frame, stats)
            conn.seq = seq

        pending = self._blocks(algorithm, regions)
        results: list = [None] * len(ids)
        unfilled: dict[int, deque[int]] = {}
        for pos, cid in enumerate(ids):
            unfilled.setdefault(cid, deque()).append(pos)
        dispatch_time: dict[int, float] = {}
        ever_dispatched: set[int] = set()
        done = 0
        deadline = time.monotonic() + self.timeout

        while done < len(ids):
            # Dispatch as many blocks as backpressure allows.
            inflight_total = sum(len(c.inflight) for c in self._conns.values())
            while pending and inflight_total < self.max_inflight:
                conn = self._pick_conn()
                if conn is None:
                    break
                region, refusal, slots = pending.popleft()
                size = min(len(slots), self.max_inflight - inflight_total)
                if size < len(slots):
                    pending.appendleft((region, refusal, slots[size:]))
                    slots = slots[:size]
                stats.blocks.append((region, refusal, slots))
                model = regions[region][1]
                for pos, cid in slots:
                    task = protocol.task_parts(round_idx, pos, cid, seq, size, model)
                    if pos in ever_dispatched:
                        stats.redispatch_bytes += model.nbytes
                        stats.redispatches += 1
                    else:
                        ever_dispatched.add(pos)
                        stats.down_model_bytes += model.nbytes
                    self._queue(conn, task, stats)
                    conn.inflight[pos] = (cid, len(stats.blocks) - 1)
                    dispatch_time[pos] = time.monotonic()
                inflight_total += size
                deadline = time.monotonic() + self.timeout

            if not self._conns and not any(p.is_alive() for p in self._procs):
                raise ServeError("every serve worker process exited")
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServeError(
                    f"no progress for {self.timeout:.1f}s with "
                    f"{len(ids) - done} clients outstanding"
                )
            for key, mask in self._selector.select(min(POLL_SEC, remaining)):
                if key.data is None:
                    self._accept(stats, state_frame, seq)
                    deadline = time.monotonic() + self.timeout
                    continue
                conn = key.data
                if mask & selectors.EVENT_WRITE:
                    if self._flush(conn, stats):
                        self._drop_conn(conn, pending, stats)
                        continue
                    self._update_events(conn)
                if not (mask & selectors.EVENT_READ):
                    continue
                closed, frames = self._read(conn, stats)
                for message in frames:
                    deadline = time.monotonic() + self.timeout
                    msg_kind, payload = protocol.parse_message(message)
                    if msg_kind == "hello":
                        conn.ready = True
                        stats.worker_retries += max(
                            0, int(payload.get("serve.attempts", 1)) - 1
                        )
                    elif msg_kind == "update":
                        update = payload
                        queue = unfilled.get(int(update.client_id))
                        if not queue:
                            stats.duplicates += 1
                            continue
                        pos = queue.popleft()
                        results[pos] = update
                        for owner in self._conns.values():
                            owner.inflight.pop(pos, None)
                        done += 1
                        stats.up_model_bytes += protocol.update_model_bytes(update)
                        started = dispatch_time.get(pos)
                        if started is not None:
                            stats.latencies.append(time.monotonic() - started)
                    else:
                        raise ServeError(
                            f"unexpected {msg_kind!r} message from a worker"
                        )
                if closed:
                    self._drop_conn(conn, pending, stats)
        return results, stats

    def _drop_conn(
        self, conn: _Conn, pending: deque | None, stats: _RoundStats
    ) -> None:
        """Close a broken connection, requeueing its unfinished clients
        at the head of ``pending``, each dispatched block's remainder as a
        block of its own (so of its own region)."""
        stats.disconnects += 1
        if pending is not None:
            held: dict[int, list[tuple[int, int]]] = {}
            for pos, (cid, block) in sorted(conn.inflight.items()):
                held.setdefault(block, []).append((pos, cid))
            for block in sorted(held, reverse=True):
                region, refusal, _slots = stats.blocks[block]
                pending.appendleft((region, refusal, held[block]))
        conn.inflight.clear()
        self._close_conn(conn)

    # -- execution -------------------------------------------------------------------
    def run(self, algorithm, round_idx: int, client_ids: list[int]):
        if not len(client_ids):
            return []
        [updates] = self.run_regions(
            algorithm, round_idx, [(client_ids, algorithm.global_params)]
        )
        return updates

    def run_regions(self, algorithm, round_idx: int, regions):
        """Every region's clients in one wave (see the module docstring),
        one update list per region, each in input order."""
        if self._fallback is None:
            if not any(len(ids) for ids, _params in regions):
                return [[] for _ in regions]
            refusal = sysinfo.fork_refusal()
            if refusal is not None:
                self._degrade(refusal)
            else:
                started = time.perf_counter()
                try:
                    updates, stats = self._serve_round(
                        algorithm, round_idx,
                        [([int(c) for c in ids], params) for ids, params in regions],
                    )
                except Exception as exc:  # worker loss, stall, socket or wire failure
                    self._degrade(f"socket serving failed: {exc!r}")
                else:
                    self._record_metrics(
                        algorithm.tracer, updates, stats, time.perf_counter() - started
                    )
                    # Reconciliation runs OUTSIDE the degrade path: a
                    # byte-accounting mismatch is a correctness signal that
                    # must surface, not a transient fault to paper over
                    # with a serial rerun.
                    self._reconcile(algorithm, updates, stats, len(updates))
                    out, start = [], 0
                    for ids, _params in regions:
                        out.append(updates[start : start + len(ids)])
                        start += len(ids)
                    return out
        return self._fallback.run_regions(algorithm, round_idx, regions)

    # -- observability & reconciliation ------------------------------------------------
    def _record_metrics(self, tracer, updates, stats: _RoundStats, elapsed: float) -> None:
        """Per-round telemetry.  Besides the traffic counters, this flags
        rounds where the workers made things *slower* (busy time below
        wall time — the cpu-bound regime on a single core, where fork,
        framing and socket overhead dominate; see
        ``docs/parallelism.md``) with a ``parallel_hint`` span and the
        ``parallel.slowdown_rounds`` counter: an obs-layer signal, not a
        warning, so determinism-focused test runs stay quiet."""
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
        if stats.connects:
            metrics.counter("serve.connects").inc(stats.connects)
        if stats.disconnects:
            metrics.counter("serve.disconnects").inc(stats.disconnects)
        if stats.redispatches:
            metrics.counter("serve.redispatches").inc(stats.redispatches)
        if stats.duplicates:
            metrics.counter("serve.duplicate_updates").inc(stats.duplicates)
        if stats.worker_retries:
            metrics.counter("serve.connect_retries").inc(stats.worker_retries)
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
        """Check socket-level model bytes against the ledger's charges.

        The ``model`` ledger kind is exactly the base formula for every
        algorithm, both directions: ``down = model_size * cohort *
        dtype_bytes`` and ``up = sum(wire_size.nbytes(dtype_bytes))``.
        The socket side measured the dense ``model`` segment of each
        first-dispatch task and each update's model payload (params or
        compressed streams), so the two agree *exactly* whenever the
        arrays on the wire are priced at their true width — no
        compressor and no ``wire_dtype_bytes`` override — and the check
        is a hard :class:`ProtocolError` there.  Coder stages ship
        decoded float64 carriers while the ledger charges bit-packed
        words, and a ``wire_dtype_bytes`` override deliberately prices a
        different width, so those runs record the drift in counters
        instead (``serve.reconcile_mismatches``).  Redispatched tasks
        are not ledger-charged and are counted separately
        (``serve.redispatch_bytes``).
        """
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
        strict = (
            algorithm.compressor is None
            and algorithm.global_params is not None
            and dtype_bytes == int(algorithm.global_params.dtype.itemsize)
        )
        if strict:
            raise ProtocolError(
                "serve-mode byte accounting drifted from the ledger: "
                f"down wire={stats.down_model_bytes} vs ledger={expected_down}, "
                f"up wire={stats.up_model_bytes} vs ledger={expected_up} "
                f"({num_clients} clients, model_size={algorithm.model_size}, "
                f"dtype_bytes={dtype_bytes})"
            )
        metrics.counter("serve.reconcile_mismatches").inc()
