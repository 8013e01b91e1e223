"""The message vocabulary spoken between the serve server and workers.

Every message on the socket is one RFW1 wire message wrapped in a
length-prefixed frame (:func:`repro.fl.wire.frame`): a ``state`` frame
(the segments of a round state every task reads, without the model,
plus a ``serve.seq``), ``generic`` messages told apart by an integer
``serve.op`` (``HELLO``; ``MODEL``, a group's model and the ``serve.seq``
of the state it goes with; ``TASK``, one client's headers and the slot
of the shared row arena holding its own rows (:mod:`repro.serve.arena`);
``SHUTDOWN``; and ``UPDATE_PICKLE``, the fallback for an update
the wire format cannot express), and packed ``update`` frames.
``docs/serving.md`` tabulates their segments; when each is sent is
:mod:`repro.serve.schedule`'s.  The pickle blob is produced by our
own forked worker: the serve sockets are a private transport between
processes of one run, not an untrusted network surface.

Address specs (``serve_addr``) parse here too, so the config layer can
reject a bad address at construction time without importing sockets.
"""

from __future__ import annotations

import pickle

import numpy as np

from repro.exceptions import ConfigError, WireError
from repro.fl import wire

OP_HELLO = 1
OP_TASK = 2
OP_SHUTDOWN = 3
OP_UPDATE_PICKLE = 4
OP_MODEL = 5


def parse_serve_addr(spec) -> tuple[str, object]:
    """Parse a serve address spec into ``(kind, address)``.

    Grammar: ``'tcp:HOST:PORT'`` (PORT 0 lets the OS pick an ephemeral
    port; the bound port is logged and irrelevant to workers, which the
    server hands the resolved address) or ``'uds:/path/to.sock'``.
    """
    text = str(spec)
    kind, _, rest = text.partition(":")
    if kind == "tcp":
        host, sep, port_text = rest.rpartition(":")
        if not sep or not host:
            raise ConfigError(
                f"serve_addr 'tcp' needs HOST:PORT ('tcp:127.0.0.1:0'), got {spec!r}"
            )
        try:
            port = int(port_text)
        except ValueError:
            raise ConfigError(
                f"serve_addr port must be an integer, got {spec!r}"
            ) from None
        if not 0 <= port <= 65535:
            raise ConfigError(f"serve_addr port must be in [0, 65535], got {port}")
        return "tcp", (host, port)
    if kind == "uds":
        if not rest:
            raise ConfigError(
                f"serve_addr 'uds' needs a socket path ('uds:/tmp/fl.sock'), got {spec!r}"
            )
        return "uds", rest
    raise ConfigError(
        f"serve_addr must be 'tcp:HOST:PORT' or 'uds:/path/to.sock', got {spec!r}"
    )


# -- frame builders -----------------------------------------------------------------
#
# ``build_*`` return ready-to-send length-prefixed bytes.  The frames
# that carry megabytes — the round state, a group's model —
# also come as ``*_parts``: ``(frame length, pieces)`` whose pieces the server
# queues as they are (one list shared by every connection), so none is
# joined into a copy on its way to the socket.  ``build_state``,
# ``build_model`` and ``build_task`` are the joins of those pieces.


def build_hello(worker_id: int, attempts: int) -> bytes:
    return wire.frame(
        wire.pack(
            "generic",
            {"serve.op": OP_HELLO, "serve.worker": worker_id, "serve.attempts": attempts},
        )
    )


def state_parts(state: dict, seq: int) -> tuple[int, list]:
    """The round-state broadcast; raises :class:`WireError` when the
    algorithm's state cannot ride the packed format (the server then
    degrades — there is no pickled state transport over sockets).

    The pieces alias the arrays in ``state`` until they are flushed."""
    return wire.frame_parts(*wire.pack_parts("state", {**state, "serve.seq": seq}))


def build_state(state: dict, seq: int) -> bytes:
    return b"".join(state_parts(state, seq)[1])


def model_parts(seq: int, model: np.ndarray) -> tuple[int, list]:
    """A group's model, for the blocks that follow it on a connection:
    ``seq`` is the state frame it goes with.  The pieces alias
    ``model``."""
    return wire.frame_parts(
        *wire.pack_parts("generic", {"serve.op": OP_MODEL, "serve.seq": seq, "model": model})
    )


def build_model(seq: int, model: np.ndarray) -> bytes:
    return b"".join(model_parts(seq, model)[1])


def task_parts(
    round_idx: int, position: int, client_id: int, seq: int, block: int,
    slot: int | None = None, rows: int = 0,
) -> tuple[int, list]:
    """One client's task, trained on the last model frame, whose
    ``serve.seq`` it repeats.  ``block`` is how many task frames, this
    one included, the server queued back to back for the worker to
    train together; ``slot`` is the client's slot of the shared row
    arena (:mod:`repro.serve.arena`, None when the run has no own-row
    state) and ``rows`` the mask of the prefixes the server filled."""
    segments = {
        "serve.op": OP_TASK,
        "serve.round": round_idx,
        "serve.position": position,
        "serve.client": client_id,
        "serve.seq": seq,
        "serve.block": block,
    }
    if slot is not None:
        segments.update({"serve.slot": slot, "serve.rows": rows})
    return wire.frame_parts(*wire.pack_parts("generic", segments))


def build_task(
    round_idx: int, position: int, client_id: int, seq: int, block: int,
    slot: int | None = None, rows: int = 0,
) -> bytes:
    return b"".join(task_parts(round_idx, position, client_id, seq, block, slot, rows)[1])


def build_shutdown() -> bytes:
    return wire.frame(wire.pack("generic", {"serve.op": OP_SHUTDOWN}))


def build_update(update, slot: int | None = None) -> bytes:
    """Pack one finished client update (wire format, pickle fallback);
    ``slot`` names the arena slot its residual was written to."""
    extra = {} if slot is None else {"serve.slot": slot}
    try:
        return wire.frame(wire.pack_client_update(update, extra))
    except WireError:
        blob = np.frombuffer(pickle.dumps(update), dtype=np.uint8)
        return wire.frame(
            wire.pack("generic", {"serve.op": OP_UPDATE_PICKLE, "blob": blob, **extra})
        )


def parse_message(message: bytes):
    """Decode one de-framed message into ``(kind, payload)``.

    Kinds: ``('state', segments)``, ``('hello', segments)``,
    ``('model', segments)``, ``('task', segments)``, ``('shutdown', None)``, or
    ``('update', (ClientUpdate, arena slot or None))``.  Unknown shapes raise
    :class:`WireError` — the connection is then treated as broken.
    """
    kind, segments = wire.unpack(message)
    if kind == "state":
        return "state", segments
    if kind == "update":
        slot = segments.pop("serve.slot", None)
        return "update", (wire.client_update_from_segments(segments), slot)
    op = segments.get("serve.op")
    if op == OP_HELLO:
        return "hello", segments
    if op == OP_MODEL:
        return "model", segments
    if op == OP_TASK:
        return "task", segments
    if op == OP_SHUTDOWN:
        return "shutdown", None
    if op == OP_UPDATE_PICKLE:
        return "update", (pickle.loads(segments["blob"].tobytes()), segments.get("serve.slot"))
    raise WireError(f"unknown serve message (kind={kind!r}, serve.op={op!r})")


def update_model_bytes(update) -> int:
    """The bytes an update's model payload occupied on the wire — the
    dense ``params`` segment or the sum of its compressed streams.
    This is the socket-side quantity the ledger reconciliation compares
    against :meth:`WireSize.nbytes` charges."""
    if update.params is not None:
        return int(update.params.nbytes)
    if update.params_streams:
        return int(sum(v.nbytes for v in update.params_streams.values()))
    return 0
