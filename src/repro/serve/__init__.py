"""Multi-process federated serving over real sockets.

RFW1 (:mod:`repro.fl.wire`) started life as a memory format; this
subsystem promotes it to a network protocol.  A federated round runs as
a **server process** — the ordinary synchronous trainer loop with a
:class:`~repro.serve.server.ServeExecutor` plugged in as the client
execution engine — plus N **client worker processes** connected over
TCP or Unix-domain sockets, every exchange a length-prefixed RFW1 frame
(:func:`repro.fl.wire.frame`).

The executor contract keeps the house invariant for free: the server
commits updates in selection order regardless of arrival order, so a
serve-mode run is bit-identical to the in-process serial engine — for
all algorithms, under compression pipelines, and across a mid-round
server kill + checkpoint resume (the sync loop's between-rounds
checkpoints are the recovery points; workers are stateless between
rounds because every wave sends the state its blocks train on).

Select with ``FLConfig(execution="serve")`` (knobs: ``serve_addr``,
``serve_timeout``, ``serve_retries``, ``serve_backoff``,
``serve_max_inflight``, ``serve_queue_bytes``) or the CLI's
``--execution serve --serve-addr tcp:127.0.0.1:0``.  See
``docs/serving.md`` for the frame layout, retry/backoff/timeout
semantics, backpressure and the crash-recovery story.
"""

from repro.serve.protocol import parse_serve_addr
from repro.serve.server import ServeError, ServeExecutor
from repro.serve.worker import worker_main

__all__ = [
    "ServeError",
    "ServeExecutor",
    "parse_serve_addr",
    "worker_main",
]
