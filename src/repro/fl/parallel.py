"""Pluggable client-execution engines with serial-equivalence guarantees.

One federated round trains every selected client independently: the
per-client work reads round-start state (global parameters, delta
tables, control variates) and all randomness is derived from
``(seed, round, client)`` streams, so client order and placement cannot
change the numbers.  The engines here exploit that:

* :class:`SerialExecutor` — the in-process reference loop.
* :class:`repro.serve.server.ServeExecutor` — the one multi-process
  engine (``executor='process'``, and ``execution='serve'``): worker
  processes forked **once per run** train the clients they are handed
  over sockets speaking RFW1 frames, with the round state packed
  **once per round** (:mod:`repro.fl.wire`).  Its workers run
  :func:`run_held_clients`, i.e. this module's serial engine.

**Determinism contract.**  ``Algorithm._client_update`` must not mutate
shared algorithm state (worker-side mutations are discarded); every
per-client side effect belongs in ``_commit_client``, which the round
runs in *selection order* regardless of completion order.  Workers
return :class:`ClientUpdate` records and the parent reduces them in
selection order, so a parallel round is bit-identical to
``num_workers=1``.

**Worker-state contract.**  Because workers live across rounds,
everything a worker-side ``_client_update`` reads from shared algorithm
state must be a state slot the algorithm declares as read by workers
(``Algorithm.state_slots``, :class:`repro.algorithms.base.StateSlot`);
``_worker_state(cohort)`` / ``_install_worker_state`` are derived from
the declaration, and state not declared there goes stale in the workers
after round 0.  ``cohort`` is the ids the round is about to run: a table
a task reads only at its own client's row travels as the cohort's
reported rows, never whole; the row a never-reported client reads is
fixed at setup, which the forked workers inherit.

**Degradation.**  The worker engine has exactly one: a failure it
cannot route around — the ``fork`` start method unavailable
(:func:`worker_refusal`), round state the wire format cannot express,
every worker gone, no progress for ``serve_timeout`` — sends it to
in-process serial execution for the rest of the run, with one
:class:`RuntimeWarning`.  A single
dead worker is not such a failure: its unfinished clients are
redispatched to the others.  The determinism contract makes either
rerun safe.  A single *update* the wire format cannot express (an
exotic payload value) returns as that client's pickled record instead;
the round stays on the workers.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass

import numpy as np

from repro.fl.compression import WireSize
from repro.fl.config import validate_choice
from repro.obs import sysinfo


@dataclass
class ClientUpdate:
    """Everything one client's local round produces.

    Attributes:
        client_id: the trained client.
        params: the parameters the server receives (after the fault /
            compression upload pipeline).  ``None`` while the update is
            still carrying compressed wire streams — the round
            materializes it before any reduction step runs.
        wire_size: exact on-wire footprint of the upload
            (:class:`~repro.fl.compression.WireSize`); the ledger charges
            ``wire_size.nbytes(dtype_bytes)``.
        task_loss: mean task loss over the local steps.
        reg_loss: mean (lambda-weighted) regularizer loss.
        num_steps: local steps actually run (FedNova's tau_k).
        train_seconds: worker-side wall time of the local work.
        worker: pid of the process that ran the work (0 = in-process).
        payload: algorithm-specific picklable extras (rFedAvg's delta,
            SCAFFOLD's control refresh, MOON's previous-model update).
        params_streams: compressed wire streams (``values``, plus int32
            ``indices`` after a coordinate selector) when a compressor
            encoded the upload; the server reconstructs ``params`` from
            them.
        residual: the client's next error-feedback accumulator
            ``e_{t+1}`` when upload compression runs with error
            feedback; committed to the server-side residual table in
            selection order.  Simulation bookkeeping — in a real
            deployment this state never leaves the client, so it is
            not charged to the ledger.
    """

    client_id: int
    params: np.ndarray | None
    wire_size: WireSize
    task_loss: float
    reg_loss: float
    num_steps: int
    train_seconds: float = 0.0
    worker: int = 0
    payload: dict | None = None
    params_streams: dict | None = None
    residual: np.ndarray | None = None


class ClientExecutor:
    """Interface: run the selected clients' local work for one round."""

    name = "base"
    num_workers = 1

    def run(self, algorithm, round_idx: int, client_ids: list[int]) -> list[ClientUpdate]:
        """Return one :class:`ClientUpdate` per client, in input order."""
        raise NotImplementedError

    def run_regions(
        self,
        algorithm,
        round_idx: int,
        regions: list[tuple[np.ndarray, np.ndarray]],
    ) -> list[list[ClientUpdate]]:
        """Run several regions' cohorts, each against its own model.

        ``regions`` is a list of ``(client_ids, region_params)`` pairs
        (the hierarchical engine's per-region sub-cohorts).  Returns one
        update list per region, each in input order.  The base
        implementation runs regions sequentially through :meth:`run`
        with the region's parameters installed; the worker engine
        overrides this to run *all* regions' clients in one wave.
        Determinism contract as :meth:`run`: per-client work depends
        only on ``(seed, round, client)`` and the installed region
        state, so scheduling cannot change the numbers.
        """
        out: list[list[ClientUpdate]] = []
        for client_ids, params in regions:
            if not len(client_ids):
                out.append([])
                continue
            algorithm.global_params = params
            out.append(self.run(algorithm, round_idx, [int(c) for c in client_ids]))
        return out

    def close(self) -> None:
        """Release workers and sockets.  The executor stays usable —
        resources are re-created lazily on the next :meth:`run`."""


class SerialExecutor(ClientExecutor):
    """The reference engine: the cohort runs in-process, in order.

    The unit of work is a block of clients (``algorithm.cohort_blocks``):
    one stacked pass (``algorithm._block_update``) where the algorithm's
    ``stack_refusal`` has no objection, one client at a time
    (``algorithm._client_update``) where it has — same updates, same
    order, same bytes either way.  Traced runs count
    ``executor.stacked_blocks`` / ``executor.stacked_clients`` and, once
    per round and reason, ``executor.cohort_unstacked{reason=...}``.
    """

    name = "serial"

    def run(self, algorithm, round_idx: int, client_ids: list[int]) -> list[ClientUpdate]:
        tracer = algorithm.tracer
        updates: list[ClientUpdate] = []
        blocks = algorithm.cohort_blocks(client_ids)
        for block, refusal in blocks:
            if refusal is None and len(block) > 1:
                updates += algorithm._block_update(round_idx, block)
                if tracer.enabled:
                    self._emit_block_spans(tracer, updates[-len(block) :])
                continue
            for client_id in block:
                with tracer.span("local_train", client=client_id):
                    updates.append(algorithm._client_update(round_idx, client_id))
        if tracer.enabled:
            self.count_blocks(tracer.metrics, blocks)
        return updates

    @staticmethod
    def count_blocks(metrics, blocks: list[tuple[list[int], str | None]]) -> None:
        """Count a round's ``(block, refusal)`` pairs: what stacked, and
        each reason something did not, once."""
        stacked = [block for block, refusal in blocks if refusal is None and len(block) > 1]
        if stacked:
            metrics.counter("executor.stacked_blocks").inc(len(stacked))
            metrics.counter("executor.stacked_clients").inc(sum(map(len, stacked)))
        for refusal in sorted({refusal for _, refusal in blocks if refusal is not None}):
            metrics.counter("executor.cohort_unstacked", reason=refusal).inc()

    @staticmethod
    def _emit_block_spans(tracer, updates: list[ClientUpdate]) -> None:
        """One ``local_train`` span a client, as the per-client path
        emits, each carrying its share of the block's wall clock."""
        for update in updates:
            with tracer.span(
                "local_train", client=update.client_id, block=len(updates)
            ) as span:
                pass
            span.duration = update.train_seconds


def run_held_clients(algorithm, round_idx: int, client_ids: list[int]) -> list[ClientUpdate]:
    """What a worker does with the clients it holds: it *is* the serial
    engine for them (stacked where ``stack_refusal`` has no objection,
    one by one where it has), stamped with its pid."""
    updates = SerialExecutor().run(algorithm, round_idx, client_ids)
    pid = os.getpid()
    for update in updates:
        update.worker = pid
    return updates


def worker_refusal() -> str | None:
    """Why forked long-lived workers cannot run here, or ``None``: the
    eligibility rule of :class:`repro.serve.server.ServeExecutor`, which
    degrades to serial on a reason.  Every algorithm can: its round state
    is its declared state slots."""
    if "fork" not in multiprocessing.get_all_start_methods():
        return "the 'fork' start method is unavailable"
    return None


def make_executor(config) -> ClientExecutor:
    """Build the engine an :class:`~repro.fl.config.FLConfig` asks for.

    Every multi-process run is the one worker engine,
    :class:`repro.serve.server.ServeExecutor`: ``execution='serve'``, and
    ``executor='process'`` (its workers forked locally over an ephemeral
    Unix socket unless ``serve_addr`` says otherwise).  ``executor='auto'``
    picks it whenever ``num_workers > 1`` **and** this process may run on
    more than one CPU (:func:`repro.obs.sysinfo.spare_cpu`, which reads
    the affinity mask) — on a single core worker overhead always exceeds the
    parallel gain (fork, state frames and result packing buy nothing
    without a second core), so auto resolves to the serial loop there.
    An explicit ``'process'`` run on one core still gets the
    ``parallel_hint`` span instead of a silent downgrade.
    """
    mode = config.executor
    workers = config.num_workers
    validate_choice("executor", mode)
    if config.execution != "serve" and (
        mode == "serial"
        or (mode == "auto" and (workers <= 1 or not sysinfo.spare_cpu()))
    ):
        return SerialExecutor()
    from repro.serve.server import ServeExecutor

    return ServeExecutor.from_config(config)
