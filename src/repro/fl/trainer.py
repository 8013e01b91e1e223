"""The federated protocol loop.

:func:`run_federated` drives a full training job: round-by-round client
sampling, one algorithm round, periodic evaluation of the global model,
and metric / communication bookkeeping.  It is algorithm-agnostic — all
method-specific behaviour lives in :mod:`repro.algorithms` — and
execution-agnostic: ``config.execution`` selects between the
synchronous barrier loop here, the event-driven buffered engine in
:mod:`repro.fl.async_engine` (a scheduler swap; with instant runtimes
and a full-cohort buffer the two are bit-identical), and
``execution='serve'`` — the same synchronous loop with the per-client
work running in socket-connected worker processes (:mod:`repro.serve`;
``make_executor`` swaps the engine, so serve mode needs no trainer
changes and is bit-identical to 'sync' by the executor contract).

Observability: pass a :class:`repro.obs.Tracer` and every round emits a
nested span tree (``round`` > ``sample`` / ``broadcast`` /
``local_train`` per client / ``aggregate`` / ``eval``) plus byte
counters fed by the algorithm's communication ledger.  The default
:data:`~repro.obs.trace.NULL_TRACER` keeps the untraced path free of
overhead.
"""

from __future__ import annotations

import os
import time
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.data.dataset import FederatedDataset

if TYPE_CHECKING:  # imported for typing only; avoids a circular import
    from repro.algorithms.base import FederatedAlgorithm
from repro.exceptions import ConfigError
from repro.fl.client import evaluate_model
from repro.fl.config import FLConfig
from repro.fl.metrics import History, RoundRecord, StreamingHistory
from repro.fl.sampling import sample_cohort
from repro.models.split import SplitModel
from repro.nn.dtype import default_dtype
from repro.nn.serialization import set_flat_params
from repro.obs.sysinfo import record_scale_gauges
from repro.obs.trace import NULL_TRACER

RoundCallback = Callable[[RoundRecord], None]


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
    **removed,
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
            :class:`RoundRecord` (printing, early-stopping bookkeeping,
            custom metric sinks).
        selector: optional :class:`~repro.fl.selection.ClientSelector`;
            defaults to uniform sampling at ``config.sample_ratio``.
        tracer: optional :class:`repro.obs.Tracer`; when given, rounds
            emit span trees, the ledger shares the tracer's metric
            registry, and the tracer observes every round record.
        runtime: optional :class:`~repro.fl.runtime.ClientRuntime`
            instance overriding ``config.runtime`` (async execution
            only); config specs cover the common models, an object here
            covers bespoke ones.
        region_observer: hierarchical topologies only — a callable
            invoked once per round with the per-region state dict (see
            :func:`repro.fl.hierarchy.run_hier_federated`).
    """
    if "progress" in removed:
        raise TypeError(
            "run_federated() no longer accepts 'progress='; it was deprecated "
            "in favour of callbacks=[fn] and has been removed — pass the "
            "callable in the callbacks sequence instead"
        )
    if removed:
        raise TypeError(
            f"run_federated() got unexpected keyword arguments {sorted(removed)}"
        )

    # The dtype policy wraps the entire job — model construction, local
    # training, aggregation, and evaluation all see config.dtype.  The
    # policy is process-global, so fork-started worker processes inherit
    # it automatically.
    with default_dtype(config.dtype):
        try:
            if config.topology != "flat":
                from repro.fl.hierarchy import run_hier_federated

                # execution='async' + hierarchy is rejected at config
                # construction; runtime= is likewise an async-only knob.
                if runtime is not None:
                    raise ConfigError(
                        "runtime= is an async-execution knob; set execution='async'"
                    )
                return run_hier_federated(
                    algorithm,
                    fed,
                    model_fn,
                    config,
                    eval_per_client=eval_per_client,
                    callbacks=callbacks,
                    selector=selector,
                    tracer=tracer,
                    region_observer=region_observer,
                )
            if region_observer is not None:
                raise ConfigError(
                    "region_observer= requires a hierarchical topology; set "
                    "topology='hier:R:P'"
                )
            if config.execution == "async":
                from repro.fl.async_engine import run_async_federated_engine

                return run_async_federated_engine(
                    algorithm,
                    fed,
                    model_fn,
                    config,
                    eval_per_client=eval_per_client,
                    callbacks=callbacks,
                    selector=selector,
                    tracer=tracer,
                    runtime=runtime,
                )
            if runtime is not None:
                raise ConfigError(
                    "runtime= is an async-execution knob; set execution='async'"
                )
            return _run_federated(
                algorithm,
                fed,
                model_fn,
                config,
                eval_per_client=eval_per_client,
                callbacks=callbacks,
                selector=selector,
                tracer=tracer,
            )
        finally:
            # The wire transport keeps a worker pool and a shared-memory
            # buffer alive across rounds; release them with the run.  An
            # executor stays usable — it re-creates its pool lazily.
            algorithm.executor.close()


# -- helpers shared by the sync loop and the async engine ---------------------------


def resolve_round_callbacks(
    callbacks: Sequence[RoundCallback] | None, tracer
) -> tuple[list[RoundCallback], "object"]:
    """Normalize the callback list and tracer (NULL_TRACER when absent);
    a live tracer observes every round record."""
    round_callbacks: list[RoundCallback] = list(callbacks) if callbacks else []
    if tracer is None:
        tracer = NULL_TRACER
    if tracer.enabled:
        round_callbacks.append(tracer.on_round)
    return round_callbacks, tracer


def build_history(algorithm_name: str, config: FLConfig) -> History:
    """The run's history in the mode ``config.history_mode`` selects.

    ``'append'`` keeps the historical unbounded record list;
    ``'stream'`` returns a :class:`StreamingHistory` that folds each
    record into O(1) running aggregates, spooling full records to
    ``<stream_dir>/history.jsonl`` when ``config.stream_dir`` is set.
    The mode is execution-only — it never changes what gets recorded.
    """
    if config.history_mode != "stream":
        return History(algorithm=algorithm_name)
    stream_dir = config.stream_dir
    stream_path = None if stream_dir is None else os.path.join(stream_dir, "history.jsonl")
    return StreamingHistory(algorithm=algorithm_name, stream_path=stream_path)


def release_round_state(fed) -> None:
    """Round-boundary cleanup for virtual populations: drop the cohort's
    materialized shards so resident memory stays flat across rounds."""
    if getattr(fed, "virtual", False):
        fed.release()


def make_client_loss(algorithm, model, fed, config) -> Callable[[int], float]:
    """Loss of the current global model on one client's shard (the
    signal loss-based selectors rank by)."""

    def client_loss(client_id: int) -> float:
        assert algorithm.global_params is not None
        set_flat_params(model, algorithm.global_params)
        loss, _acc = evaluate_model(model, fed.clients[client_id], config.eval_batch)
        return loss

    return client_loss


def select_round_clients(
    round_idx: int,
    fed: FederatedDataset,
    config: FLConfig,
    round_rng: np.random.Generator,
    selector,
    client_loss: Callable[[int], float],
) -> np.ndarray:
    """One round's cohort — the configured sampler or a custom selector.

    Both execution modes draw from the same ``round_rng`` stream in the
    same per-round order, which is one of the preconditions for the
    async engine's zero-latency bit-identity.  ``config.sampler``
    selects the cohort-drawing strategy (``'uniform'`` is the historical
    stream; ``'reservoir'`` / ``'stratified[:k]'`` never enumerate the
    population — see :mod:`repro.fl.sampling`).
    """
    from repro.fl.selection import SelectionContext

    if selector is None:
        return sample_cohort(
            fed.num_clients,
            config.sample_ratio,
            round_rng,
            sampler=config.sampler,
        )
    context = SelectionContext(
        round_idx=round_idx, fed=fed, rng=round_rng, client_loss=client_loss
    )
    return np.asarray(selector.select(context), dtype=np.int64)


def eval_per_client_accuracy(algorithm, model, fed, config, tracer) -> np.ndarray:
    """Final global model's accuracy on each client's shard (Fig. 11)."""
    with tracer.span("eval_per_client"):
        assert algorithm.global_params is not None
        set_flat_params(model, algorithm.global_params)
        per_client = np.zeros(fed.num_clients)
        eval_sets = fed.client_test if fed.client_test else fed.clients
        for k, shard in enumerate(eval_sets):
            _loss, acc = evaluate_model(model, shard, config.eval_batch)
            per_client[k] = acc
        return per_client


# -- the synchronous barrier loop ---------------------------------------------------


def _run_federated(
    algorithm: "FederatedAlgorithm",
    fed: FederatedDataset,
    model_fn: Callable[[], SplitModel],
    config: FLConfig,
    *,
    eval_per_client: bool = False,
    callbacks: Sequence[RoundCallback] | None = None,
    selector=None,
    tracer=None,
) -> History:
    round_callbacks, tracer = resolve_round_callbacks(callbacks, tracer)

    model = model_fn()
    algorithm.tracer = tracer
    algorithm.setup(model, fed, config)
    round_rng = np.random.default_rng([config.seed, 0xF1])
    client_loss = make_client_loss(algorithm, model, fed, config)

    history = build_history(algorithm.name, config)

    # Crash-safe checkpointing (repro.ckpt).  The manager owns the
    # directory; a resume restores the newest valid checkpoint into the
    # freshly set-up objects above and re-enters the loop at the next
    # round.  Every per-(round, client, phase) stream is derived from
    # the master seed, so restoring the round RNG + server state + the
    # ledger/history cut makes the continuation bit-identical to an
    # uninterrupted run.
    manager = None
    start_round = 0
    if config.checkpoint_dir is not None:
        from repro.ckpt.manager import CheckpointManager
        from repro.ckpt.state import capture_run_state, restore_run_state

        manager = CheckpointManager(config.checkpoint_dir, keep=config.checkpoint_keep)
        if config.resume:
            loaded = manager.load_latest_valid()
            if loaded is not None:
                last_round = restore_run_state(
                    *loaded,
                    algorithm=algorithm,
                    round_rng=round_rng,
                    history=history,
                    config=config,
                    tracer=tracer,
                )
                start_round = last_round + 1
            # Everything restored was copied out of the section blobs;
            # bound here they would outlive the whole run.
            del loaded

    for round_idx in range(start_round, config.rounds):
        with tracer.span("round", round=round_idx):
            with tracer.span("sample"):
                selected = select_round_clients(
                    round_idx, fed, config, round_rng, selector, client_loss
                )
            if tracer.enabled:
                for client_id in selected:
                    tracer.metrics.counter(
                        "clients.selected", client=int(client_id)
                    ).inc()
            started = time.perf_counter()
            stats = algorithm.run_round(round_idx, selected)
            elapsed = time.perf_counter() - started
            assert algorithm.ledger is not None
            round_comm = algorithm.ledger.end_round()

            record = RoundRecord(
                round_idx=round_idx,
                train_loss=stats.train_loss,
                reg_loss=stats.reg_loss,
                wall_time_sec=elapsed,
                bytes_down=round_comm["down"],
                bytes_up=round_comm["up"],
                num_selected=len(selected),
            )
            is_eval_round = (
                round_idx % config.eval_every == 0 or round_idx == config.rounds - 1
            )
            if is_eval_round:
                with tracer.span("eval"):
                    assert algorithm.global_params is not None
                    set_flat_params(model, algorithm.global_params)
                    test_loss, test_acc = evaluate_model(
                        model, fed.test, config.eval_batch
                    )
                    record.test_loss = test_loss
                    record.test_accuracy = test_acc
            history.append(record)
            for callback in round_callbacks:
                callback(record)
            if manager is not None and (
                (round_idx + 1) % config.checkpoint_every == 0
                or round_idx == config.rounds - 1
            ):
                # After history/ledger bookkeeping: the snapshot is a
                # consistent between-rounds cut of the whole run.
                # The sections alias live state and are never bound
                # here: capture -> save is one synchronous step.
                with tracer.span("checkpoint"):
                    manager.save(
                        round_idx,
                        *capture_run_state(
                            round_idx=round_idx,
                            algorithm=algorithm,
                            round_rng=round_rng,
                            history=history,
                            config=config,
                            tracer=tracer,
                        ),
                    )
            record_scale_gauges(tracer, fed)
        release_round_state(fed)

    history.final_accuracy = history.last_accuracy()
    if eval_per_client:
        history.per_client_accuracy = eval_per_client_accuracy(
            algorithm, model, fed, config, tracer
        )
    return history
