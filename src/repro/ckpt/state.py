"""Complete-run-state capture and restore.

What makes a resumed federated run *bit-identical* to an uninterrupted
one is that nothing round-coupled is lost: besides the global model,
algorithms carry server state (control variates, momentum, delayed
delta tables), the trainer carries the selection
RNG and the growing :class:`~repro.fl.metrics.History`, the ledger
carries cumulative byte totals, and an attached fault model carries its
own RNG plus counters.  :func:`capture_run_state` snapshots all of it
into named checkpoint sections; :func:`restore_run_state` writes it back
into freshly constructed objects.

Per-(round, client, phase) streams — client training RNGs, privacy
noise, compression draws — are *derived* from the master seed on every
use and therefore need no snapshotting; that statelessness is what keeps
the checkpoint small and the resume exact.  Worker processes need no
special handling either: they re-adopt restored state through the
per-round ``_worker_state`` frame every round, the first included.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.ckpt.format import pack_tree_parts, unpack_tree
from repro.ckpt.provenance import check_resume_compatible, run_provenance
from repro.exceptions import CheckpointError
from repro.fl.metrics import History, StreamingHistory

SECTION_MODEL = "model"
SECTION_ALGORITHM = "algorithm"
SECTION_RNG = "rng"
SECTION_LEDGER = "ledger"
SECTION_HISTORY = "history"
SECTION_METRICS = "metrics"
SECTION_FAULTS = "faults"
SECTION_ASYNC = "async"
SECTION_HIERARCHY = "hierarchy"


def rng_state(generator: np.random.Generator) -> dict:
    """JSON-able snapshot of a numpy Generator's bit-generator state."""
    return generator.bit_generator.state


def set_rng_state(generator: np.random.Generator, state: dict) -> None:
    generator.bit_generator.state = state


def capture_run_state(
    *,
    round_idx: int,
    algorithm,
    round_rng: np.random.Generator,
    history: History,
    config,
    tracer=None,
    extra_sections: dict[str, dict] | None = None,
) -> tuple[dict, dict[str, list]]:
    """Snapshot everything a resume needs, as ``(meta, sections)``.

    Called at the end of round ``round_idx`` — after the history record
    was appended and the ledger's round was closed, so the snapshot is a
    consistent between-rounds cut of the run.

    **A captured section aliases live state until ``save`` returns.**
    Sections are piece lists (:func:`~repro.ckpt.format.pack_tree_parts`)
    whose large pieces are views of the arrays ``checkpoint_state()``
    returned — the global model, SCAFFOLD's controls, MOON's previous
    models, rFedAvg+'s sync model residual have always been handed over
    uncopied — so capture -> ``CheckpointManager.save`` is one synchronous step:
    pass the sections straight to ``save`` and keep no reference to
    them (they pin whatever they view).

    ``extra_sections`` maps section names to pack_tree-able dicts the
    trainer's round step wants carried alongside the core state (the
    buffered-event step's event queue and sim clock ride in
    ``SECTION_ASYNC``, the region models in ``SECTION_HIERARCHY``);
    :func:`restore_run_state` hands them back under the same names.
    """
    assert algorithm.ledger is not None
    meta = {
        "round_idx": int(round_idx),
        "rounds_total": int(config.rounds),
        "provenance": run_provenance(config, algorithm.name, algorithm.hyperparameters()),
    }
    # Streaming histories checkpoint their O(1) summary instead of the
    # full record list (checkpoint_dict); appending histories keep the
    # historical full to_dict form.
    history_dict_fn = getattr(history, "checkpoint_dict", history.to_dict)
    sections: dict[str, list] = {
        SECTION_MODEL: pack_tree_parts({"global_params": algorithm.global_params}),
        SECTION_ALGORITHM: pack_tree_parts(algorithm.checkpoint_state()),
        SECTION_RNG: pack_tree_parts({"round_rng": rng_state(round_rng)}),
        SECTION_LEDGER: pack_tree_parts(algorithm.ledger.state_dict()),
        SECTION_HISTORY: pack_tree_parts(history_dict_fn()),
    }
    if algorithm.fault_model is not None:
        sections[SECTION_FAULTS] = pack_tree_parts(algorithm.fault_model.state_dict())
    if tracer is not None and tracer.enabled:
        sections[SECTION_METRICS] = pack_tree_parts(tracer.metrics.state_dict())
    for name, tree in (extra_sections or {}).items():
        if name in sections:
            raise CheckpointError(f"extra section {name!r} collides with a core section")
        sections[name] = pack_tree_parts(tree)
    return meta, sections


def restore_run_state(
    manifest: dict,
    sections: dict[str, bytes],
    *,
    algorithm,
    round_rng: np.random.Generator,
    history: History,
    config,
    tracer=None,
    extra_sections: dict[str, Callable[[dict], None]] | None = None,
) -> int:
    """Write a captured snapshot back into live objects.

    ``algorithm`` must already be set up (model bound, arrays allocated).
    Returns the last *completed* round index; the trainer resumes at the
    next one.  Raises :class:`~repro.exceptions.CheckpointMismatchError`
    when the checkpoint's provenance does not match this run.

    ``extra_sections`` maps each section this run's round step owns to
    the callable that adopts its unpacked tree; a checkpoint without
    one was written by a different engine and is refused with the core
    sections' :class:`~repro.exceptions.CheckpointError`.

    Decoded arrays are read-only views of ``sections``; every consumer
    here copies what it adopts, so nothing restored refers to the blobs
    and the caller frees them by dropping ``sections``.
    """
    meta = manifest.get("meta", {})
    stored = meta.get("provenance", {})
    check_resume_compatible(
        stored, run_provenance(config, algorithm.name, algorithm.hyperparameters())
    )
    if int(meta.get("rounds_total", config.rounds)) != int(config.rounds):
        # Extending/shortening a run keeps the config hash distinct, but
        # guard explicitly for clarity if the hash rule ever loosens.
        raise CheckpointError(
            f"checkpoint was written for a {meta.get('rounds_total')}-round run, "
            f"this run has {config.rounds} rounds"
        )

    extra_sections = extra_sections or {}
    required = (SECTION_MODEL, SECTION_ALGORITHM, SECTION_RNG,
                SECTION_LEDGER, SECTION_HISTORY, *extra_sections)
    missing = [name for name in required if name not in sections]
    if missing:
        raise CheckpointError(f"checkpoint missing sections {missing}")

    # Restore order matters only for the metrics/ledger pair: the ledger
    # sets its counters to absolute checkpointed values, so a shared
    # tracer registry restored first cannot double-count.
    if tracer is not None and tracer.enabled and SECTION_METRICS in sections:
        tracer.metrics.restore_state(unpack_tree(sections[SECTION_METRICS]))

    model_state = unpack_tree(sections[SECTION_MODEL])
    algorithm.restore_checkpoint_state(unpack_tree(sections[SECTION_ALGORITHM]))
    algorithm.global_params = np.array(model_state["global_params"], copy=True)
    algorithm._load_global()

    set_rng_state(round_rng, unpack_tree(sections[SECTION_RNG])["round_rng"])
    assert algorithm.ledger is not None
    algorithm.ledger.load_state_dict(unpack_tree(sections[SECTION_LEDGER]))

    history_data = unpack_tree(sections[SECTION_HISTORY])
    stored_stream = history_data.get("mode") == "stream"
    live_stream = isinstance(history, StreamingHistory)
    if stored_stream and not live_stream:
        raise CheckpointError(
            "checkpoint carries a streaming history summary (no records); "
            "resume with history_mode='stream' or start over"
        )
    if live_stream:
        history.final_accuracy = history_data.get("final_accuracy")
        if history_data.get("per_client_accuracy") is not None:
            history.per_client_accuracy = np.array(
                history_data["per_client_accuracy"]
            )
        if stored_stream:
            history.restore_summary(history_data["summary"])
        else:
            # Append-mode checkpoint resumed under streaming: re-fold
            # the full record list into the O(1) summary.
            history.fold_records(History.from_dict(history_data).records)
        history.truncate_spool(int(meta["round_idx"]))
    else:
        restored_history = History.from_dict(history_data)
        history.records = restored_history.records
        history.final_accuracy = restored_history.final_accuracy
        history.per_client_accuracy = restored_history.per_client_accuracy

    if SECTION_FAULTS in sections:
        if algorithm.fault_model is None:
            raise CheckpointError(
                "checkpoint carries fault-model state but this run has no "
                "fault model attached; attach the same FaultModel to resume"
            )
        algorithm.fault_model.load_state_dict(unpack_tree(sections[SECTION_FAULTS]))
    elif algorithm.fault_model is not None:
        raise CheckpointError(
            "this run has a fault model but the checkpoint carries no "
            "fault-model state; detach it or resume the original run"
        )
    for name, adopt in extra_sections.items():
        adopt(unpack_tree(sections[name]))
    return int(meta["round_idx"])
