"""The regions round step: hierarchical aggregation (client -> region -> cloud).

A hierarchical run (``FLConfig(topology="hier:R:P")``) partitions the
population into R contiguous **regions**.  :func:`repro.fl.trainer.run_federated`
owns the loop (sampling, records, evaluation, callbacks, checkpoints);
each of its rounds runs :meth:`RegionStep.run`: every region runs the
standard algorithm round — broadcast, local client work,
``commit_round`` — over its own client slice and its own model, and
every P rounds a **cloud** step averages the region models (weighted by
region data volume) and redistributes.  Only that region <-> cloud hop
is charged as expensive ``cloud-model`` traffic; client <-> region
traffic keeps the flat ``model`` kind.  See ``docs/hierarchy.md`` for
the topology grammar, the bytes accounting and the resume semantics
(including the HierFAVG drift discussion).

The step composes with the rest of the stack rather than simulating
around it:

* Client execution goes through the algorithm's
  :class:`~repro.fl.parallel.ClientExecutor` —
  :meth:`~repro.fl.parallel.ClientExecutor.run_regions` lets the
  worker engine run *all* regions' clients in one wave on its
  persistent workers, which is the headline multi-core speedup.
* Virtual populations, spilling delta tables, streaming
  histories/ledgers, compression pipelines and fault models all work
  unchanged; the optional ``cloud_compression`` spec compresses the
  region -> cloud uplink as a delta against the last cloud model.
* The step owns one checkpoint section (the region models and the
  cloud reference, :data:`repro.ckpt.state.SECTION_HIERARCHY`) that the
  trainer saves and restores with the standard run snapshot;
  crash-resume is bit-identical, and flat <-> hierarchical cross-resume
  is refused.

**House invariant.** ``topology="hier:1:1"`` (one region, cloud sync
every round — where the sync short-circuits entirely) reproduces the
barrier step bit for bit — parameters, ledger, history — for every
registered algorithm (``tests/fl/test_hierarchy_equivalence.py``).
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from repro.exceptions import ConfigError
from repro.fl.client import evaluate_model  # noqa: F401 -- bench/instrument.py wraps this name
from repro.fl.comm import CommLedger
from repro.fl.config import FLConfig, parse_topology_spec
from repro.fl.metrics import History, RoundRecord
from repro.fl.server import weighted_average
from repro.nn.serialization import set_flat_params  # noqa: F401 -- bench/instrument.py wraps this name


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


# -- the round step -----------------------------------------------------------------


class RegionStep:
    """One hierarchical round: per-region dispatch and commit, the
    periodic cloud synchronization, and the virtual global model the
    run reports in between."""

    def __init__(
        self,
        algorithm,
        fed,
        config: FLConfig,
        region_observer: Callable[[dict], None] | None = None,
    ) -> None:
        # Imported here: repro.ckpt imports repro.fl.
        from repro.ckpt.state import SECTION_HIERARCHY

        self.section = SECTION_HIERARCHY
        num_regions, self.edge_period = parse_topology_spec(config.topology)
        if num_regions > 1 and not algorithm.region_aggregation_safe:
            raise ConfigError(
                f"{algorithm.name} maintains exact per-round global state and "
                f"cannot aggregate per region; topology {config.topology!r} needs "
                f"R=1 (e.g. 'hier:1:{self.edge_period}') or a different algorithm"
            )
        self.algorithm = algorithm
        self.config = config
        self.region_observer = region_observer
        self.regions = RegionSet(fed.num_clients, num_regions)
        self.region_weights = self.regions.data_weights(fed.client_sizes)
        assert algorithm.global_params is not None
        self.region_params = [algorithm.global_params.copy() for _ in range(num_regions)]
        # The reference the cloud-hop delta compression encodes against;
        # only advanced at cloud syncs.
        self.cloud_params = algorithm.global_params.copy()
        self.cloud_compressor = None
        spec = config.cloud_compression
        if num_regions > 1 and spec not in (None, "", "none"):
            from repro.fl.compression import compressor_from_spec

            self.cloud_compressor = compressor_from_spec(spec)
        tracer = algorithm.tracer
        if tracer.enabled:
            tracer.metrics.gauge("hierarchy.regions").set(num_regions)
            tracer.metrics.gauge("hierarchy.edge_period").set(self.edge_period)

    def _is_cloud_sync(self, round_idx: int) -> bool:
        """The sync schedule is a pure function of the round index, so
        no schedule state rides in the checkpoint."""
        return self.regions.num_regions > 1 and (round_idx + 1) % self.edge_period == 0

    def run(self, round_idx: int, cohort: np.ndarray):
        algorithm = self.algorithm
        tracer = algorithm.tracer
        num_regions = self.regions.num_regions

        # The pre-round hook, fault dropout (one fault-RNG stream over
        # the whole cohort, so fault draws are independent of R) and the
        # client <-> region broadcast charge see the cohort as the flat
        # round does; the local work and the commit run per region.
        cohort = algorithm.begin_round(round_idx, cohort)
        sub_cohorts = self.regions.split_cohort(cohort)
        with tracer.span("region_execute", regions=num_regions):
            region_updates = algorithm.executor.run_regions(
                algorithm, round_idx, list(zip(sub_cohorts, self.region_params))
            )

        all_updates = []
        for r, (sub, updates) in enumerate(zip(sub_cohorts, region_updates)):
            if not len(sub):
                continue
            region_started = time.perf_counter()
            algorithm.global_params = self.region_params[r]
            algorithm._receive_updates(updates)
            algorithm.commit_round(round_idx, sub, updates, region=r)
            self.region_params[r] = algorithm.global_params
            all_updates.extend(updates)
            if tracer.enabled:
                tracer.metrics.histogram("hierarchy.region_seconds").observe(
                    sum(u.train_seconds for u in updates)
                    + (time.perf_counter() - region_started)
                )
        stats = algorithm._round_stats(cohort, all_updates)

        if self._is_cloud_sync(round_idx):
            with tracer.span("cloud_sync", round=round_idx):
                self._cloud_sync(round_idx)

        # The reported/checkpointed model: the region model itself at
        # R=1 (flat bit-identity), otherwise the weighted average the
        # next cloud sync would produce — an eval-only view, never fed
        # back into training.
        algorithm.global_params = (
            self.region_params[0]
            if num_regions == 1
            else weighted_average(self.region_params, self.region_weights)
        )
        return stats, cohort

    def _cloud_sync(self, round_idx: int) -> None:
        algorithm, ledger = self.algorithm, self.algorithm.ledger
        num_regions = self.regions.num_regions
        if self.cloud_compressor is None:
            summaries = self.region_params
            ledger.charge(
                CommLedger.UP, "cloud-model", algorithm.model_size, copies=num_regions
            )
        else:
            # Each region uploads a lossy delta against the last cloud
            # model; the cloud averages the reconstructions and is
            # charged the true encoded bytes.
            summaries = []
            for r, params in enumerate(self.region_params):
                rng = np.random.default_rng([self.config.seed, round_idx, r, 0xC1])
                recon, wire_size = self.cloud_compressor.compress(
                    params - self.cloud_params, rng
                )
                summaries.append(self.cloud_params + recon)
                ledger.charge_bytes(
                    CommLedger.UP, "cloud-model", wire_size.nbytes(ledger.dtype_bytes)
                )
        self.cloud_params = weighted_average(summaries, self.region_weights)
        ledger.charge(
            CommLedger.DOWN, "cloud-model", algorithm.model_size, copies=num_regions
        )
        self.region_params = [self.cloud_params.copy() for _ in range(num_regions)]

    def observe(self, record: RoundRecord, round_comm: dict) -> None:
        """Split the round's traffic into cloud and region bytes and
        feed ``region_observer`` its per-round dict: ``round``,
        ``cloud_sync``, ``region_params`` (copies), ``region_weights``,
        ``train_loss``, ``test_accuracy`` (eval rounds only) and
        ``bytes`` — what the drift studies build their per-region series
        from."""
        tracer = self.algorithm.tracer
        if tracer.enabled:
            cloud_bytes = sum(
                v for k, v in round_comm.items()
                if k.partition(":")[2] == "cloud-model"
            )
            tracer.metrics.counter("hierarchy.cloud_bytes").inc(cloud_bytes)
            tracer.metrics.counter("hierarchy.region_bytes").inc(
                round_comm["down"] + round_comm["up"] - cloud_bytes
            )
        if self.region_observer is not None:
            self.region_observer(
                {
                    "round": record.round_idx,
                    "cloud_sync": self._is_cloud_sync(record.round_idx),
                    "region_params": [p.copy() for p in self.region_params],
                    "region_weights": self.region_weights.copy(),
                    "train_loss": record.train_loss,
                    "test_accuracy": record.test_accuracy,
                    "bytes": round_comm,
                }
            )

    def finish(self, history: History) -> None:
        """Nothing outlives the last round."""

    # -- checkpointing -----------------------------------------------------------
    def state_tree(self) -> dict:
        return {
            "region_params": list(self.region_params),
            "cloud_params": self.cloud_params,
        }

    def restore_tree(self, tree: dict) -> None:
        self.region_params = [np.array(p, copy=True) for p in tree["region_params"]]
        self.cloud_params = np.array(tree["cloud_params"], copy=True)
