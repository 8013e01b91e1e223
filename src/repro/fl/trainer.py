"""The federated protocol loop: one driver, three round steps.

:func:`run_federated` drives a full training job.  Everything that does
not depend on how a round is scheduled happens here, once: model and
algorithm set-up, checkpoint resume, cohort sampling, the
:class:`~repro.fl.metrics.RoundRecord`, periodic evaluation of the
global model, callbacks, checkpoint cadence and the final evaluation.
It is algorithm-agnostic — all method-specific behaviour lives in
:mod:`repro.algorithms` — and what one round *does* with its sampled
cohort is a **round step** chosen from the config:

* :class:`BarrierStep` (``execution='sync'`` and ``'serve'``): every
  dispatched client finishes before the round commits.  Serve mode is
  this step with the per-client work running in socket-connected worker
  processes (:mod:`repro.serve`; ``make_executor`` swaps the engine, so
  it is bit-identical to 'sync' by the executor contract).
* :class:`~repro.fl.async_engine.BufferedStep` (``execution='async'``):
  finished updates arrive through a simulated-time event queue and
  commit from a buffer, stale ones discounted.
* :class:`~repro.fl.hierarchy.RegionStep` (``topology='hier:R:P'``):
  each region commits its own sub-cohort into its own model, with a
  periodic cloud average.

A step runs one round on a sampled cohort and returns its
:class:`~repro.algorithms.base.RoundStats` plus the ids it dispatched
(``run``); may own one named checkpoint section (``section``,
``state_tree``, ``restore_tree``); sees each finished record before it
is appended (``observe``); and closes the run (``finish``).  With
instant runtimes and a full-cohort buffer, or with one region, the
other two steps are bit-identical to the barrier step — records
included.

Observability: pass a :class:`repro.obs.Tracer` and every round emits a
nested span tree (``round`` > ``sample`` / ``broadcast`` /
``local_train`` per client / ``aggregate`` / ``eval`` /
``checkpoint``) plus byte counters fed by the algorithm's communication
ledger.  The default :data:`~repro.obs.trace.NULL_TRACER` keeps the
untraced path free of overhead.
"""

from __future__ import annotations

import copy
import os
import time
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.data.dataset import FederatedDataset

if TYPE_CHECKING:  # imported for typing only; avoids a circular import
    from repro.algorithms.base import FederatedAlgorithm
from repro.exceptions import ConfigError
from repro.fl.async_engine import BufferedStep
from repro.fl.client import evaluate_model
from repro.fl.config import FLConfig
from repro.fl.hierarchy import RegionStep
from repro.fl.metrics import History, RoundRecord, StreamingHistory
from repro.fl.sampling import sample_cohort
from repro.fl.selection import SelectionContext
from repro.models.split import SplitModel
from repro.nn.dtype import default_dtype
from repro.nn.serialization import set_flat_params
from repro.obs.sysinfo import record_scale_gauges
from repro.obs.trace import NULL_TRACER

RoundCallback = Callable[[RoundRecord], None]


class BarrierStep:
    """One synchronous round: every dispatched client finishes, then
    the round commits.  Stateless between rounds, so it owns no
    checkpoint section."""

    section = None

    def __init__(self, algorithm: "FederatedAlgorithm") -> None:
        self.algorithm = algorithm

    def run(self, round_idx: int, cohort: np.ndarray):
        """Each update is received and committed as the executor streams
        it, so the round holds a block of updates, not the cohort."""
        algorithm = self.algorithm
        cohort = algorithm.begin_round(round_idx, cohort)
        base = algorithm.global_params
        stream = algorithm.executor.stream(algorithm, round_idx, [(cohort, base)])
        received = (algorithm._receive(update, base) for _group, update in stream)
        return algorithm.commit_round(round_idx, cohort, received), cohort

    def observe(self, record: RoundRecord, round_comm: dict) -> None:
        """The record needs nothing from a barrier round."""

    def finish(self, history: History) -> None:
        """Nothing outlives the last round."""


def _round_step(algorithm, fed, config: FLConfig, runtime, region_observer):
    """The run's round step — the one place an engine is chosen.
    (``execution='async'`` with a hierarchical topology is refused at
    config construction.)"""
    hierarchical = config.topology != "flat"
    if runtime is not None and config.execution != "async":
        raise ConfigError("runtime= is an async-execution knob; set execution='async'")
    if region_observer is not None and not hierarchical:
        raise ConfigError(
            "region_observer= requires a hierarchical topology; set "
            "topology='hier:R:P'"
        )
    if hierarchical:
        return RegionStep(algorithm, fed, config, region_observer)
    if config.execution == "async":
        return BufferedStep(algorithm, fed, config, runtime)
    return BarrierStep(algorithm)


def run_federated(
    algorithm: "FederatedAlgorithm",
    fed: FederatedDataset,
    model_fn: Callable[[], SplitModel],
    config: FLConfig,
    *,
    eval_per_client: bool = False,
    callbacks: Sequence[RoundCallback] | None = None,
    selector=None,
    tracer=None,
    runtime=None,
    region_observer=None,
) -> History:
    """Run one federated training job and return its :class:`History`.

    Args:
        algorithm: a constructed (not yet set up) algorithm strategy.
        fed: the partitioned dataset.
        model_fn: builds the initial global model; must be deterministic
            so repeated runs with the same seed are identical.
        config: federated hyperparameters.
        eval_per_client: additionally evaluate the final global model on
            each client's local shard (fairness analysis, Fig. 11).
        callbacks: per-round callables, each invoked with the finished
            :class:`RoundRecord` after it was appended to the history
            (printing, early-stopping bookkeeping, custom metric sinks).
        selector: optional :class:`~repro.fl.selection.ClientSelector`;
            defaults to ``config.sampler`` at ``config.sample_ratio``.
        tracer: optional :class:`repro.obs.Tracer`; when given, rounds
            emit span trees, the ledger shares the tracer's metric
            registry, and the tracer observes every round record.
        runtime: optional :class:`~repro.fl.runtime.ClientRuntime`
            instance overriding ``config.runtime`` (async execution
            only); config specs cover the common models, an object here
            covers bespoke ones.
        region_observer: hierarchical topologies only — a callable
            invoked once per round with the per-region state dict (see
            :meth:`repro.fl.hierarchy.RegionStep.observe`).

    An asynchronous run's history carries the update-level
    :class:`~repro.fl.async_engine.AsyncHistory` as
    ``history.async_history``.
    """
    # The dtype policy wraps the entire job — model construction, local
    # training, aggregation, and evaluation all see config.dtype.  The
    # policy is process-global, so fork-started worker processes inherit
    # it automatically.
    with default_dtype(config.dtype):
        try:
            return _drive(
                algorithm, fed, model_fn, config,
                eval_per_client=eval_per_client, callbacks=callbacks,
                selector=selector, tracer=tracer, runtime=runtime,
                region_observer=region_observer,
            )
        finally:
            # The worker engine keeps its workers and sockets alive
            # across rounds; release them with the run.  An executor
            # stays usable — it re-forks its workers lazily.  So does a
            # virtual population's render-ahead helper.
            algorithm.executor.close()
            if getattr(fed, "virtual", False):
                fed.clients.close()


def _drive(
    algorithm, fed, model_fn, config, *,
    eval_per_client, callbacks, selector, tracer, runtime, region_observer,
) -> History:
    if tracer is None:
        tracer = NULL_TRACER
    round_callbacks: list[RoundCallback] = list(callbacks) if callbacks else []
    if tracer.enabled:
        round_callbacks.append(tracer.on_round)

    model = model_fn()
    algorithm.tracer = tracer
    algorithm.setup(model, fed, config)
    step = _round_step(algorithm, fed, config, runtime, region_observer)
    # Every engine draws cohorts from this one stream in the same
    # per-round order — a precondition of their bit-identity.
    round_rng = np.random.default_rng([config.seed, 0xF1])

    # history_mode is execution-only: 'stream' folds each record into
    # O(1) running aggregates (spooling full records to stream_dir when
    # set) and never changes what gets recorded.
    if config.history_mode == "stream":
        history: History = StreamingHistory(
            algorithm=algorithm.name,
            stream_path=(
                None if config.stream_dir is None
                else os.path.join(config.stream_dir, "history.jsonl")
            ),
        )
    else:
        history = History(algorithm=algorithm.name)

    def evaluate_global(dataset) -> tuple[float, float]:
        """(loss, accuracy) of the current global model on ``dataset``."""
        assert algorithm.global_params is not None
        set_flat_params(model, algorithm.global_params)
        return evaluate_model(model, dataset)

    # Crash-safe checkpointing (repro.ckpt).  The manager owns the
    # directory; a resume restores the newest valid checkpoint into the
    # freshly set-up objects above and re-enters the loop at the next
    # round.  Every per-(round, client, phase) stream is derived from
    # the master seed, so restoring the round RNG + server state + the
    # ledger/history cut + the step's own section makes the
    # continuation bit-identical to an uninterrupted run.
    manager = None
    start_round = 0
    if config.checkpoint_dir is not None:
        # Imported here: repro.ckpt imports repro.fl.
        from repro.ckpt.manager import CheckpointManager
        from repro.ckpt.state import capture_run_state, restore_run_state

        manager = CheckpointManager(config.checkpoint_dir, keep=config.checkpoint_keep)
        run_state = dict(
            algorithm=algorithm, round_rng=round_rng, history=history,
            config=config, tracer=tracer,
        )
        if config.resume:
            loaded = manager.load_latest_valid()
            if loaded is not None:
                start_round = 1 + restore_run_state(
                    *loaded,
                    **run_state,
                    extra_sections=(
                        {step.section: step.restore_tree} if step.section else None
                    ),
                )
            # Everything restored was copied out of the section blobs;
            # bound here they would outlive the whole run.
            del loaded

    # A virtual population renders its cohorts' shards one round ahead,
    # on a spare CPU (repro.data.virtual.VirtualClientSet.render_ahead).
    virtual = getattr(fed, "virtual", False)
    for round_idx in range(start_round, config.rounds):
        last_round = round_idx == config.rounds - 1
        with tracer.span("round", round=round_idx):
            with tracer.span("sample"):
                if selector is None:
                    cohort = sample_cohort(
                        fed.num_clients, config.sample_ratio, round_rng,
                        sampler=config.sampler,
                    )
                else:
                    context = SelectionContext(
                        round_idx=round_idx, fed=fed, rng=round_rng,
                        client_loss=lambda k: evaluate_global(fed.clients[k])[0],
                    )
                    cohort = np.asarray(selector.select(context), dtype=np.int64)
                if virtual:
                    # The next cohort is drawn from a copy of the stream,
                    # so the real draws (and the checkpoint) are unchanged.
                    upcoming = () if last_round or selector is not None else sample_cohort(
                        fed.num_clients, config.sample_ratio, copy.deepcopy(round_rng),
                        sampler=config.sampler,
                    )
                    fed.clients.render_ahead(cohort, upcoming)
            started = time.perf_counter()
            stats, dispatched = step.run(round_idx, cohort)
            elapsed = time.perf_counter() - started
            if tracer.enabled:
                for client_id in dispatched:
                    tracer.metrics.counter(
                        "clients.selected", client=int(client_id)
                    ).inc()
            assert algorithm.ledger is not None
            round_comm = algorithm.ledger.end_round()

            record = RoundRecord(
                round_idx=round_idx,
                train_loss=stats.train_loss,
                reg_loss=stats.reg_loss,
                wall_time_sec=elapsed,
                bytes_down=round_comm["down"],
                bytes_up=round_comm["up"],
                num_selected=len(dispatched),
            )
            if round_idx % config.eval_every == 0 or last_round:
                with tracer.span("eval"):
                    record.test_loss, record.test_accuracy = evaluate_global(fed.test)
            step.observe(record, round_comm)
            history.append(record)
            for callback in round_callbacks:
                callback(record)
            if manager is not None and (
                (round_idx + 1) % config.checkpoint_every == 0 or last_round
            ):
                # After history/ledger bookkeeping: the snapshot is a
                # consistent between-rounds cut of the whole run.  The
                # sections alias live state and are never bound here:
                # capture -> save is one synchronous step.
                with tracer.span("checkpoint"):
                    manager.save(
                        round_idx,
                        *capture_run_state(
                            round_idx=round_idx,
                            **run_state,
                            extra_sections=(
                                {step.section: step.state_tree()}
                                if step.section else None
                            ),
                        ),
                    )
            record_scale_gauges(tracer, fed)
        # Virtual populations drop the cohort's materialized shards so
        # resident memory stays flat across rounds.
        if virtual:
            fed.release()
    if virtual and fed.clients.render_ahead_lost:
        tracer.metrics.counter("data.render_ahead_lost").inc()

    history.final_accuracy = history.last_accuracy()
    step.finish(history)
    if eval_per_client:
        # Final global model's accuracy on each client's shard (Fig. 11).
        with tracer.span("eval_per_client"):
            eval_sets = fed.client_test if fed.client_test else fed.clients
            history.per_client_accuracy = np.array(
                [evaluate_global(shard)[1] for shard in eval_sets]
            )
    return history
