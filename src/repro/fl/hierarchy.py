"""Region-parallel hierarchical aggregation (client -> region -> cloud).

A hierarchical run (``FLConfig(topology="hier:R:P")``) partitions the
population into R contiguous **regions**.  Every round each region runs
the standard algorithm round — broadcast, local client work, commit,
``_aggregate_updates`` — over its own client slice and its own model;
every P rounds a **cloud** step averages the region models (weighted by
region data volume) and redistributes.  Only that region <-> cloud hop
is charged as expensive ``cloud-model`` traffic; client <-> region
traffic keeps the flat engine's ``model`` kind.  See
``docs/hierarchy.md`` for the topology grammar, the bytes accounting
and the resume semantics (including the HierFAVG drift discussion that
used to live here).

The engine composes with the rest of the stack rather than simulating
around it:

* Client execution goes through the algorithm's
  :class:`~repro.fl.parallel.ClientExecutor` —
  :meth:`~repro.fl.parallel.ClientExecutor.run_regions` lets the wire
  transport run *all* regions' clients concurrently on one persistent
  process pool, which is the headline multi-core speedup.
* Virtual populations, sharded delta tables, streaming
  histories/ledgers, compression pipelines and fault models all work
  unchanged; the optional ``cloud_compression`` spec compresses the
  region -> cloud uplink as a delta against the last cloud model.
* Checkpoints carry the region models in a dedicated section
  (:data:`repro.ckpt.state.SECTION_HIERARCHY`); crash-resume is
  bit-identical, and flat <-> hierarchical cross-resume is refused.

**House invariant.** ``topology="hier:1:1"`` (one region, cloud sync
every round — where the sync short-circuits entirely) reproduces the
flat engine bit for bit — parameters, ledger, accuracy — for every
registered algorithm (``tests/fl/test_hierarchy_equivalence.py``).

The legacy eager HierFAVG entry points (:class:`HierarchyConfig`,
:func:`run_hierarchical`) remain as deprecated shims that delegate to
this engine.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.data.dataset import FederatedDataset
from repro.exceptions import CheckpointError, ConfigError
from repro.fl.client import evaluate_model
from repro.fl.comm import CommLedger
from repro.fl.config import FLConfig, parse_topology_spec
from repro.fl.metrics import History, RoundRecord
from repro.fl.server import weighted_average
from repro.fl.trainer import (
    RoundCallback,
    build_history,
    eval_per_client_accuracy,
    make_client_loss,
    release_round_state,
    resolve_round_callbacks,
    select_round_clients,
)
from repro.models.split import SplitModel
from repro.nn.serialization import set_flat_params
from repro.obs.sysinfo import record_scale_gauges


# -- region partitioning -------------------------------------------------------------


class RegionSet:
    """A contiguous partition of ``[0, num_clients)`` into regions.

    Regions are contiguous, ascending id ranges (``np.array_split``
    semantics: the first ``N % R`` regions get one extra client), so a
    sorted cohort splits into per-region sub-cohorts with
    ``searchsorted`` — no O(N) assignment array exists, which keeps a
    million-client virtual population's region bookkeeping O(R).
    Contiguity also makes region-major iteration over the sub-cohorts
    equal the global ascending selection order, the property that keeps
    commit order identical to the flat engine.
    """

    def __init__(self, num_clients: int, num_regions: int) -> None:
        if num_regions < 1:
            raise ConfigError(f"need at least one region, got {num_regions}")
        if num_regions > num_clients:
            raise ConfigError(
                f"need num_regions <= num_clients, got {num_regions} regions "
                f"for {num_clients} clients"
            )
        self.num_clients = int(num_clients)
        self.num_regions = int(num_regions)
        div, mod = divmod(self.num_clients, self.num_regions)
        sizes = np.full(self.num_regions, div, dtype=np.int64)
        sizes[:mod] += 1
        self.bounds = np.concatenate(([0], np.cumsum(sizes)))

    def region_sizes(self) -> np.ndarray:
        return np.diff(self.bounds)

    def slice(self, region: int) -> tuple[int, int]:
        """The ``[lo, hi)`` client-id range owned by one region."""
        return int(self.bounds[region]), int(self.bounds[region + 1])

    def region_of(self, client_ids) -> np.ndarray:
        """Owning region index for each client id."""
        ids = np.asarray(client_ids, dtype=np.int64)
        return np.searchsorted(self.bounds, ids, side="right") - 1

    def split_cohort(self, selected: np.ndarray) -> list[np.ndarray]:
        """Split a sorted cohort into per-region sub-cohorts.

        Sub-cohorts are contiguous slices of ``selected``; concatenated
        in region order they reproduce the cohort exactly.
        """
        cuts = np.searchsorted(selected, self.bounds)
        return [selected[cuts[r]: cuts[r + 1]] for r in range(self.num_regions)]

    def data_weights(self, client_sizes: np.ndarray) -> np.ndarray:
        """Per-region total data volume (the cloud averaging weights)."""
        return np.array(
            [
                client_sizes[self.bounds[r]: self.bounds[r + 1]].sum()
                for r in range(self.num_regions)
            ],
            dtype=np.float64,
        )


# -- the engine ---------------------------------------------------------------------


def _virtual_global(region_params: list[np.ndarray], weights: np.ndarray) -> np.ndarray:
    """The model the run reports between cloud syncs.

    With one region this *is* the region model (no averaging, keeping
    the flat bit-identity); with several it is the weighted average the
    next cloud sync would produce — an eval-only view, never fed back
    into training.
    """
    if len(region_params) == 1:
        return region_params[0]
    return weighted_average(region_params, weights)


def run_hier_federated(
    algorithm,
    fed: FederatedDataset,
    model_fn: Callable[[], SplitModel],
    config: FLConfig,
    *,
    eval_per_client: bool = False,
    callbacks: Sequence[RoundCallback] | None = None,
    selector=None,
    tracer=None,
    region_observer: Callable[[dict], None] | None = None,
) -> History:
    """Run one hierarchical federated job; called by
    :func:`repro.fl.trainer.run_federated` when ``config.topology``
    is ``'hier:R:P'`` (the dtype policy and executor lifecycle are
    managed there).

    ``region_observer``, when given, is invoked once per round with a
    dict carrying ``round``, ``cloud_sync``, ``region_params`` (copies),
    ``region_weights``, ``train_loss`` and ``test_accuracy`` (eval
    rounds only) — the hook the legacy :func:`run_hierarchical` shim
    and the drift studies build their per-region series from.
    """
    num_regions, edge_period = parse_topology_spec(config.topology)
    round_callbacks, tracer = resolve_round_callbacks(callbacks, tracer)

    model = model_fn()
    algorithm.tracer = tracer
    algorithm.setup(model, fed, config)
    if num_regions > 1 and not getattr(algorithm, "region_aggregation_safe", True):
        raise ConfigError(
            f"{algorithm.name} maintains exact per-round global state and "
            f"cannot aggregate per region; topology {config.topology!r} needs "
            f"R=1 (e.g. 'hier:1:{edge_period}') or a different algorithm"
        )
    regions = RegionSet(fed.num_clients, num_regions)
    round_rng = np.random.default_rng([config.seed, 0xF1])
    client_loss = make_client_loss(algorithm, model, fed, config)

    history = build_history(algorithm.name, config)

    assert algorithm.global_params is not None
    region_params = [algorithm.global_params.copy() for _ in range(num_regions)]
    region_weights = regions.data_weights(fed.client_sizes)
    # The reference the cloud-hop delta compression encodes against;
    # only advanced at cloud syncs.
    cloud_params = algorithm.global_params.copy()
    cloud_compressor = None
    spec = config.cloud_compression
    if num_regions > 1 and spec not in (None, "", "none"):
        from repro.fl.compression import compressor_from_spec

        cloud_compressor = compressor_from_spec(spec)
    if tracer.enabled:
        tracer.metrics.gauge("hierarchy.regions").set(num_regions)
        tracer.metrics.gauge("hierarchy.edge_period").set(edge_period)

    # Crash-safe checkpointing: the standard run snapshot plus one
    # engine-owned section for the region models and the cloud
    # reference.  The sync schedule is a pure function of the round
    # index, so no schedule state needs to ride along.
    manager = None
    start_round = 0
    if config.checkpoint_dir is not None:
        from repro.ckpt.format import unpack_tree
        from repro.ckpt.manager import CheckpointManager
        from repro.ckpt.state import (
            SECTION_HIERARCHY,
            capture_run_state,
            restore_run_state,
        )

        manager = CheckpointManager(config.checkpoint_dir, keep=config.checkpoint_keep)
        if config.resume:
            loaded = manager.load_latest_valid()
            if loaded is not None:
                manifest, sections = loaded
                last_round = restore_run_state(
                    manifest,
                    sections,
                    algorithm=algorithm,
                    round_rng=round_rng,
                    history=history,
                    config=config,
                    tracer=tracer,
                )
                if SECTION_HIERARCHY not in sections:
                    raise CheckpointError(
                        "checkpoint carries no hierarchy section; it was "
                        "written by a flat run"
                    )
                tier_state = unpack_tree(sections[SECTION_HIERARCHY])
                region_params = [
                    np.array(p, copy=True) for p in tier_state["region_params"]
                ]
                cloud_params = np.array(tier_state["cloud_params"], copy=True)
                if len(region_params) != num_regions:
                    raise CheckpointError(
                        f"checkpoint carries {len(region_params)} region models, "
                        f"this run has {num_regions} regions"
                    )
                start_round = last_round + 1
                del manifest, sections, tier_state
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

            # -- the region-structured round (mirrors Algorithm.run_round) --
            algorithm._require_setup()
            sub_cohorts = regions.split_cohort(selected)
            for r, sub in enumerate(sub_cohorts):
                if len(sub) == 0 and num_regions > 1:
                    continue
                algorithm.global_params = region_params[r]
                algorithm._pre_round(round_idx, sub)
            # Dropout filters the full cohort through one fault-RNG
            # stream, so fault draws are independent of R.
            if algorithm.fault_model is not None:
                selected = algorithm.fault_model.surviving_clients(selected)
                sub_cohorts = regions.split_cohort(selected)
            with tracer.span("broadcast"):
                for r, sub in enumerate(sub_cohorts):
                    if len(sub) == 0 and num_regions > 1:
                        continue
                    algorithm.global_params = region_params[r]
                    algorithm._charge_broadcast(sub)

            region_jobs = [
                (sub, region_params[r]) for r, sub in enumerate(sub_cohorts)
            ]
            with tracer.span("region_execute", regions=num_regions):
                region_updates = algorithm.executor.run_regions(
                    algorithm, round_idx, region_jobs
                )

            all_updates = []
            for r, (sub, updates) in enumerate(zip(sub_cohorts, region_updates)):
                if len(sub) == 0 and num_regions > 1:
                    continue
                region_started = time.perf_counter()
                algorithm.global_params = region_params[r]
                for update in updates:
                    algorithm._materialize_params(update)
                if tracer.enabled:
                    histogram = tracer.metrics.histogram("client.update_norm")
                    for update in updates:
                        histogram.observe(
                            float(
                                np.linalg.norm(
                                    update.params - algorithm.global_params
                                )
                            )
                        )
                algorithm._charge_uploads(sub, updates)
                for update in updates:
                    if algorithm.fault_model is not None and (
                        algorithm.fault_model.is_byzantine(update.client_id)
                    ):
                        algorithm.fault_model.corrupted_total += 1
                    algorithm._commit_client(round_idx, update)
                with tracer.span("aggregate", region=r):
                    algorithm.global_params = algorithm._aggregate_updates(
                        round_idx, sub, updates
                    )
                    algorithm._post_aggregate(round_idx, sub)
                region_params[r] = algorithm.global_params
                all_updates.extend(updates)
                if tracer.enabled:
                    tracer.metrics.histogram("hierarchy.region_seconds").observe(
                        sum(u.train_seconds for u in updates)
                        + (time.perf_counter() - region_started)
                    )
            stats = algorithm._round_stats(selected, all_updates)

            # -- cloud synchronization ----------------------------------
            cloud_sync = num_regions > 1 and (round_idx + 1) % edge_period == 0
            if cloud_sync:
                with tracer.span("cloud_sync", round=round_idx):
                    assert algorithm.ledger is not None
                    if cloud_compressor is None:
                        summaries = region_params
                        algorithm.ledger.charge(
                            CommLedger.UP, "cloud-model",
                            algorithm.model_size, copies=num_regions,
                        )
                    else:
                        # Each region uploads a lossy delta against the
                        # last cloud model; the cloud averages the
                        # reconstructions and is charged the true
                        # encoded bytes.
                        summaries = []
                        for r, params in enumerate(region_params):
                            rng = np.random.default_rng(
                                [config.seed, round_idx, r, 0xC1]
                            )
                            recon, wire_size = cloud_compressor.compress(
                                params - cloud_params, rng
                            )
                            summaries.append(cloud_params + recon)
                            algorithm.ledger.charge_bytes(
                                CommLedger.UP, "cloud-model",
                                wire_size.nbytes(algorithm.ledger.dtype_bytes),
                            )
                    cloud_params = weighted_average(summaries, region_weights)
                    algorithm.ledger.charge(
                        CommLedger.DOWN, "cloud-model",
                        algorithm.model_size, copies=num_regions,
                    )
                    region_params = [
                        cloud_params.copy() for _ in range(num_regions)
                    ]

            # The reported/checkpointed model: the region model itself
            # at R=1 (flat bit-identity), the eval-only weighted average
            # between syncs otherwise.
            algorithm.global_params = _virtual_global(region_params, region_weights)
            elapsed = time.perf_counter() - started

            assert algorithm.ledger is not None
            round_comm = algorithm.ledger.end_round()
            if tracer.enabled:
                cloud_bytes = sum(
                    v for k, v in round_comm.items()
                    if k.partition(":")[2] == "cloud-model"
                )
                tracer.metrics.counter("hierarchy.cloud_bytes").inc(cloud_bytes)
                tracer.metrics.counter("hierarchy.region_bytes").inc(
                    round_comm["down"] + round_comm["up"] - cloud_bytes
                )

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
                    set_flat_params(model, algorithm.global_params)
                    test_loss, test_acc = evaluate_model(
                        model, fed.test, config.eval_batch
                    )
                    record.test_loss = test_loss
                    record.test_accuracy = test_acc
            history.append(record)
            for callback in round_callbacks:
                callback(record)
            if region_observer is not None:
                region_observer(
                    {
                        "round": round_idx,
                        "cloud_sync": cloud_sync,
                        "region_params": [p.copy() for p in region_params],
                        "region_weights": region_weights.copy(),
                        "train_loss": stats.train_loss,
                        "test_accuracy": record.test_accuracy,
                        "bytes": round_comm,
                    }
                )

            if manager is not None and (
                (round_idx + 1) % config.checkpoint_every == 0
                or round_idx == config.rounds - 1
            ):
                # Sections alias live state; never bound here.
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
                            extra_sections={
                                SECTION_HIERARCHY: {
                                    "region_params": list(region_params),
                                    "cloud_params": cloud_params,
                                }
                            },
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


# -- deprecated eager-API shims ------------------------------------------------------

_RUN_HIERARCHICAL_WARNED = False


@dataclass
class HierarchyConfig:
    """Deprecated two-level schedule knobs (legacy eager API).

    Use ``FLConfig(topology="hier:R:P", rounds=edge_rounds)`` with
    :func:`repro.fl.trainer.run_federated` instead.

    Attributes:
        edge_rounds: total edge-aggregation rounds.
        edge_period: cloud synchronization every this many edge rounds.
    """

    edge_rounds: int = 20
    edge_period: int = 5

    def __post_init__(self) -> None:
        if self.edge_rounds <= 0 or self.edge_period <= 0:
            raise ConfigError("edge_rounds and edge_period must be positive")


@dataclass
class HierarchicalHistory:
    """Per-edge-round metrics of a hierarchical run (legacy eager API)."""

    edge_assignment: list[np.ndarray]
    records: list[dict] = field(default_factory=list)
    final_accuracy: float | None = None

    def cloud_rounds(self) -> list[int]:
        return [r["round"] for r in self.records if r["cloud_sync"]]

    def edge_divergence_series(self) -> np.ndarray:
        return np.array([r["edge_divergence"] for r in self.records])


def assign_edges(
    num_clients: int, num_edges: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Randomly attach clients to edges (each edge gets >= 1 client).

    Legacy helper of the eager API; the first-class engine partitions
    contiguously via :class:`RegionSet` instead, so samplers can split
    cohorts without an O(N) assignment array.
    """
    if not 1 <= num_edges <= num_clients:
        raise ConfigError("need 1 <= num_edges <= num_clients")
    order = rng.permutation(num_clients)
    return [np.sort(chunk) for chunk in np.array_split(order, num_edges)]


def run_hierarchical(
    fed: FederatedDataset,
    model_fn,
    config: FLConfig,
    hierarchy: HierarchyConfig,
    num_edges: int = 2,
) -> HierarchicalHistory:
    """Deprecated: run HierFAVG through the first-class engine.

    Warns once and delegates to :func:`run_hier_federated` with
    ``topology='hier:<num_edges>:<edge_period>'`` and plain FedAvg local
    work (what the eager loop implemented), rebuilding the legacy
    :class:`HierarchicalHistory` from the engine's ``region_observer``
    stream.  Prefer
    ``run_federated(algorithm, fed, model_fn, config.with_updates(
    topology=...))`` directly.
    """
    global _RUN_HIERARCHICAL_WARNED
    if not _RUN_HIERARCHICAL_WARNED:
        _RUN_HIERARCHICAL_WARNED = True
        warnings.warn(
            "run_hierarchical()/HierarchyConfig are deprecated; set "
            "FLConfig(topology='hier:R:P') and call run_federated() — the "
            "first-class engine runs regions in parallel and composes with "
            "checkpointing, compression and virtual populations",
            DeprecationWarning,
            stacklevel=2,
        )
    from repro.algorithms.fedavg import FedAvg
    from repro.fl.trainer import run_federated

    hier_config = config.with_updates(
        rounds=hierarchy.edge_rounds,
        topology=f"hier:{num_edges}:{hierarchy.edge_period}",
        eval_every=hierarchy.edge_period,
    )
    regions = RegionSet(fed.num_clients, num_edges)
    history = HierarchicalHistory(
        edge_assignment=[
            np.arange(*regions.slice(r), dtype=np.int64)
            for r in range(regions.num_regions)
        ]
    )

    def observe(info: dict) -> None:
        stacked = np.stack(info["region_params"])
        record = {
            "round": info["round"],
            "cloud_sync": info["cloud_sync"],
            "train_loss": info["train_loss"],
            "edge_divergence": float(
                np.linalg.norm(stacked - stacked.mean(axis=0), axis=1).mean()
            ),
            "bytes": info["bytes"],
        }
        if info["test_accuracy"] is not None:
            record["test_accuracy"] = info["test_accuracy"]
        history.records.append(record)

    run_federated(
        FedAvg(), fed, model_fn, hier_config, region_observer=observe
    )
    evaluated = [r for r in history.records if "test_accuracy" in r]
    history.final_accuracy = evaluated[-1]["test_accuracy"] if evaluated else None
    return history
