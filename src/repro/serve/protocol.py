"""The message vocabulary spoken between the serve server and workers.

Every message on the socket is one RFW1 wire message wrapped in a
length-prefixed frame (:func:`repro.fl.wire.frame`).  Four shapes occur:

``state`` (RFW1 kind ``state``)
    Server -> worker, once per round (for the union of the regions'
    cohorts under a hierarchical topology): the algorithm's :meth:`_worker_state` segments for the
    round's cohort (whole tables every client reads, cohort rows of
    tables a client reads only at its own id) plus a ``serve.seq``
    sequence number.
``generic`` control messages (RFW1 kind ``generic``)
    Discriminated by an integer ``serve.op`` segment: ``HELLO`` (worker
    -> server, announces readiness and how many connect attempts it
    took), ``TASK`` (server -> worker: round / client / sequence, the
    size of the block of task frames it was queued with, plus the dense
    ``model`` segment — the per-client downlink), and ``SHUTDOWN``
    (server -> worker).
``update`` (RFW1 kind ``update``)
    Worker -> server: one packed :class:`~repro.fl.parallel.ClientUpdate`
    (:func:`repro.fl.wire.pack_client_update`).
``generic`` pickled update (``serve.op == UPDATE_PICKLE``)
    The fallback when an update carries a payload the wire format
    cannot express.  The
    blob is a pickle produced by our own forked worker — the serve
    sockets are a private transport between processes of one run, not
    an untrusted network surface (see ``docs/serving.md``).

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
# ``build_*`` return ready-to-send length-prefixed bytes.  The two frames
# that carry megabytes — the round state and a task's model — also come
# as ``*_parts``: ``(frame length, pieces)`` whose pieces the server
# queues as they are (one list shared by every connection), so neither
# is joined into a copy on its way to the socket.  ``build_state`` and
# ``build_task`` are the joins of those pieces.


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


def task_parts(
    round_idx: int, position: int, client_id: int, seq: int, block: int, model: np.ndarray
) -> tuple[int, list]:
    """One client's task.  ``block`` is how many task frames, this one
    included, the server queued back to back for the worker to train
    together; every frame still carries its own ``model``."""
    return wire.frame_parts(
        *wire.pack_parts(
            "generic",
            {
                "serve.op": OP_TASK,
                "serve.round": round_idx,
                "serve.position": position,
                "serve.client": client_id,
                "serve.seq": seq,
                "serve.block": block,
                "model": model,
            },
        )
    )


def build_task(
    round_idx: int, position: int, client_id: int, seq: int, block: int, model: np.ndarray
) -> bytes:
    return b"".join(task_parts(round_idx, position, client_id, seq, block, model)[1])


def build_shutdown() -> bytes:
    return wire.frame(wire.pack("generic", {"serve.op": OP_SHUTDOWN}))


def build_update(update) -> bytes:
    """Pack one finished client update (wire format, pickle fallback)."""
    try:
        return wire.frame(wire.pack_client_update(update))
    except WireError:
        blob = np.frombuffer(pickle.dumps(update), dtype=np.uint8)
        return wire.frame(
            wire.pack("generic", {"serve.op": OP_UPDATE_PICKLE, "blob": blob})
        )


def parse_message(message: bytes):
    """Decode one de-framed message into ``(kind, payload)``.

    Kinds: ``('state', segments)``, ``('hello', segments)``,
    ``('task', segments)``, ``('shutdown', None)``, or
    ``('update', ClientUpdate)``.  Unknown shapes raise
    :class:`WireError` — the connection is then treated as broken.
    """
    kind, segments = wire.unpack(message)
    if kind == "state":
        return "state", segments
    if kind == "update":
        return "update", wire.client_update_from_segments(segments)
    op = segments.get("serve.op")
    if op == OP_HELLO:
        return "hello", segments
    if op == OP_TASK:
        return "task", segments
    if op == OP_SHUTDOWN:
        return "shutdown", None
    if op == OP_UPDATE_PICKLE:
        return "update", pickle.loads(segments["blob"].tobytes())
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
