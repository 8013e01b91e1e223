"""Multi-process federated serving over real sockets.

A federated round runs as a server process — the ordinary trainer loop
with :class:`~repro.serve.server.ServeExecutor` as its client engine —
plus N forked worker processes (:mod:`repro.serve.worker`) that speak
length-prefixed RFW1 frames (:mod:`repro.serve.protocol`) over TCP or
Unix-domain sockets; which block goes to which worker is
:mod:`repro.serve.schedule`'s.  A served run is bit-identical to the
serial engine.  Select it with ``FLConfig(execution="serve")`` (or
``executor="process"``); ``docs/serving.md`` has the frame layout,
retries, backpressure and crash recovery.
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
