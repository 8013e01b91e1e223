"""The client worker process of the worker engine.

A worker is forked by :class:`~repro.serve.server.ServeExecutor` (so the
algorithm — model workspace, federated dataset, config — arrives as
inherited memory), connects back to the server socket with retry +
exponential backoff, and then loops:

* ``state`` frame -> adopt the segments every task reads via
  ``_install_worker_state``.
* ``model`` frame -> point ``global_params`` at its ``model`` segment,
  the model of the group whose blocks follow; it names the state frame
  it goes with, and one naming a state this connection did not install
  last makes the worker exit (the server redispatches).
* ``task`` frame  -> hold it until the ``serve.block`` frames of its
  block have arrived; then install read-only views of the own rows in
  the tasks' slots of the shared row arena (``_install_rows``), train
  the block on the last model frame's model as the serial engine would
  (:func:`repro.fl.parallel.run_held_clients`), and for each client, in
  order, write its residual into its slot and send its packed update,
  which names the slot.  A task whose ``serve.seq`` is not that model
  frame's, or whose slot is not one of the arena's, makes the worker
  exit.
* ``shutdown`` frame or EOF -> exit.

Retries, timeouts and the orphan exit: ``docs/serving.md``.
"""

from __future__ import annotations

import os
import socket
import time

from repro.exceptions import ProtocolError
from repro.fl import wire
from repro.fl.parallel import run_held_clients
from repro.obs.trace import NULL_TRACER
from repro.serve import protocol

RECV_CHUNK = 1 << 16


def connect_with_retry(
    resolved: tuple[str, object], retries: int, backoff: float, timeout: float
) -> tuple[socket.socket, int]:
    """Connect to the server, retrying with exponential backoff.

    Returns ``(socket, attempts_used)``; raises :class:`OSError` after
    the last attempt fails.
    """
    kind, addr = resolved
    delay = backoff
    last: OSError | None = None
    for attempt in range(1, retries + 1):
        try:
            if kind == "tcp":
                sock = socket.create_connection(addr, timeout=timeout)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            else:
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.settimeout(timeout)
                sock.connect(addr)
            return sock, attempt
        except OSError as exc:
            last = exc
            if attempt < retries:
                time.sleep(delay)
                delay *= 2
    raise OSError(f"could not connect to {addr!r} after {retries} attempts: {last}")


def send_with_retry(
    sock: socket.socket, payload: bytes, retries: int, backoff: float
) -> None:
    """Send all of ``payload``, retrying timed-out writes with backoff.

    Tracks the write position explicitly so a retry resumes where the
    stalled send left off — ``sendall`` after a timeout would not know
    how much already went out.
    """
    view = memoryview(payload)
    delay = backoff
    stalls = 0
    while view.nbytes:
        try:
            sent = sock.send(view)
        except socket.timeout:
            stalls += 1
            if stalls >= retries:
                raise OSError(f"send stalled {stalls} times; giving up") from None
            time.sleep(delay)
            delay = min(delay * 2, 1.0)
            continue
        stalls = 0
        view = view[sent:]


def worker_main(
    algorithm,
    resolved: tuple[str, object],
    worker_id: int,
    timeout: float,
    retries: int,
    backoff: float,
    inherited: tuple = (),
    arena=None,
) -> None:
    """Run one worker's serve loop (the forked child's entry point);
    ``arena`` is the server's :class:`~repro.serve.arena.RowArena`,
    inherited with the fork (None when the run has no own-row state)."""
    # Sockets inherited from the parent (the listener, other workers'
    # accepted connections) must close here: a lingering duplicate fd
    # would keep a peer's connection half-open after its real owner
    # exits, defeating EOF-based death detection.
    for sock in inherited:
        try:
            sock.close()
        except OSError:
            pass
    # Children never report spans directly; timings ride back inside
    # the update frames and the server re-emits them.
    algorithm.tracer = NULL_TRACER
    parent_pid = os.getppid()
    try:
        sock, attempts = connect_with_retry(resolved, retries, backoff, timeout)
    except OSError:
        return
    state_seq = model_seq = -1  # the installed state, and the one the model goes with
    held: list[dict] = []  # tasks of the block still arriving
    with sock:
        sock.settimeout(timeout)
        try:
            send_with_retry(sock, protocol.build_hello(worker_id, attempts), retries, backoff)
            assembler = wire.FrameAssembler()
            while True:
                try:
                    data = sock.recv(RECV_CHUNK)
                except socket.timeout:
                    # Idle between rounds is normal — but if the server
                    # process died (SIGKILL leaves sibling fd duplicates
                    # holding our connection open), exit rather than
                    # wait on a socket nobody owns.
                    if os.getppid() != parent_pid:
                        return
                    continue
                if not data:
                    return
                for message in assembler.feed(data):
                    kind, payload = protocol.parse_message(message)
                    if kind == "state":
                        algorithm._install_worker_state(payload)
                        state_seq, model_seq = int(payload.get("serve.seq", -1)), -1
                    elif kind == "model":
                        if int(payload["serve.seq"]) != state_seq:
                            return  # a model for a state this connection never installed
                        algorithm.global_params = payload["model"]
                        model_seq = state_seq
                    elif kind == "task":
                        if int(payload["serve.seq"]) != model_seq:
                            # A task for a state or model this connection
                            # never saw: per-connection stream ordering
                            # makes this a protocol bug, not a race.
                            # Exit; the server redispatches.
                            return
                        slot = payload.get("serve.slot")
                        if (slot is None) != (arena is None):
                            return
                        if arena is not None:
                            arena.check(int(slot), int(payload["serve.rows"]))
                        held.append(payload)
                        if len(held) < int(payload["serve.block"]):
                            continue
                        clients = [int(task["serve.client"]) for task in held]
                        slots = [task.get("serve.slot") for task in held]
                        rows = [
                            {} if arena is None
                            else arena.rows(int(task["serve.slot"]), int(task["serve.rows"]))
                            for task in held
                        ]
                        algorithm._install_rows(clients, rows)
                        round_idx = int(payload["serve.round"])
                        updates = run_held_clients(algorithm, round_idx, clients)
                        for update, slot in zip(updates, slots):
                            if arena is not None:
                                arena.put_residual(int(slot), update.residual)
                                update.residual = None
                            send_with_retry(
                                sock, protocol.build_update(update, slot), retries, backoff
                            )
                        held = []
                    elif kind == "shutdown":
                        return
        except (OSError, wire.WireError, ProtocolError):
            return
