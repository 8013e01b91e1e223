"""Shared machinery for the distribution-regularized algorithms."""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import FederatedAlgorithm
from repro.core.delta import DeltaCache, DeltaTable
from repro.core.privacy import GaussianDeltaMechanism
from repro.core.regularizer import DistributionRegularizer
from repro.exceptions import ConfigError
from repro.fl.client import compute_mean_embedding
from repro.nn.serialization import params_fingerprint


class RegularizedAlgorithm(FederatedAlgorithm):
    """Base for rFedAvg variants: owns the delta table and regularizer.

    Args:
        lam: regularization weight lambda (Eq. 3); also acts as the
            normalization coefficient, so good values are dataset
            dependent (paper: 1e-4 MNIST, 1e-5 CIFAR, 0.1 Sent140).
        mode: 'pairwise' or 'loo' — which r_k form the clients optimize.
        privacy: optional Gaussian mechanism applied to every delta a
            client uploads (Fig. 12).
        delta_cache: memoize raw mean embeddings keyed on (phi
            parameters, client data) content fingerprints, skipping the
            embedding forward pass when neither changed.  Bit-identical
            to recomputation; disable (``False``) to benchmark the
            recompute path, or pass an ``int`` to bound the cache to
            that many entries with LRU eviction (evictions only force
            recomputation, never change results).
    """

    name = "regularized-base"

    def __init__(
        self,
        lam: float,
        mode: str,
        privacy: GaussianDeltaMechanism | None = None,
        delta_cache: bool | int = True,
    ) -> None:
        super().__init__()
        if lam < 0:
            raise ConfigError(f"lambda must be non-negative, got {lam}")
        self.lam = lam
        self.regularizer = DistributionRegularizer(lam, mode=mode)
        self.privacy = privacy
        self.delta_table: DeltaTable | None = None
        if delta_cache is True:
            self.delta_cache = DeltaCache()
        elif delta_cache is False:
            self.delta_cache = None
        else:
            self.delta_cache = DeltaCache(max_entries=int(delta_cache))

    def setup(self, model, fed, config) -> None:
        super().setup(model, fed, config)
        self.delta_table = self._make_state_table(model.feature_dim)

    def _worker_state(self, cohort) -> dict:
        state = super()._worker_state(cohort)
        assert self.delta_table is not None
        # Every client's regularizer reads the other clients' rows.
        state.update(self.delta_table.worker_segments())
        return state

    def _install_worker_state(self, state: dict) -> None:
        super()._install_worker_state(state)
        assert self.delta_table is not None
        self.delta_table.install_worker_segments(state)

    def checkpoint_state(self) -> dict:
        state = super().checkpoint_state()
        assert self.delta_table is not None
        state.update(self.delta_table.checkpoint_segments())
        if self.delta_cache is not None:
            state["delta_cache"] = self.delta_cache.state_dict()
        return state

    def restore_checkpoint_state(self, state: dict) -> None:
        super().restore_checkpoint_state(state)
        assert self.delta_table is not None
        self.delta_table.restore_checkpoint_segments(state)
        if self.delta_cache is not None and "delta_cache" in state:
            self.delta_cache.load_state_dict(state["delta_cache"])

    def _raw_deltas(self, client_ids: list[int], phi_fp: bytes | None = None) -> list:
        """The clients' mean embeddings under the current workspace
        model, through the delta cache when enabled.  More than one
        client is a block :meth:`stack_refusal` passed: the embeddings
        the cache does not hold come from one stacked pass, after every
        lookup of the block and before its stores.

        ``phi_fp`` is the fingerprint of the workspace model's phi, from a
        caller that loaded the model once and holds it fixed across many
        clients; without it phi is hashed here, per call.
        """
        assert self.model is not None and self.fed is not None and self.config is not None
        shards = [self.fed.clients[client_id] for client_id in client_ids]

        def embed(block):
            # One shard goes through the model as it always did (any
            # model); several go as one stack and come back as rows.
            data = block[0] if len(block) == 1 else block
            rows = compute_mean_embedding(self.model, data, self.config.eval_batch)
            return [rows] if len(block) == 1 else list(rows)

        if self.delta_cache is None:
            return embed(shards)
        # The data fingerprint is recomputed on every call and phi's at
        # least once per loop that holds the model fixed, so stale hits
        # are impossible even under in-place parameter or data mutation
        # — provided such a loop does not mutate the model it hashed.
        if phi_fp is None:
            phi_fp = params_fingerprint(self.model.features)
        data_fps = [shard.content_fingerprint() for shard in shards]
        deltas = [
            self.delta_cache.lookup(client_id, phi_fp, data_fp)
            for client_id, data_fp in zip(client_ids, data_fps)
        ]
        missed = [i for i, delta in enumerate(deltas) if delta is None]
        evicted = 0
        if missed:
            before = self.delta_cache.evictions
            for i, delta in zip(missed, embed([shards[i] for i in missed])):
                self.delta_cache.store(client_ids[i], phi_fp, data_fps[i], delta)
                deltas[i] = delta
            evicted = self.delta_cache.evictions - before
        if self.tracer.enabled:
            metrics = self.tracer.metrics
            if len(missed) < len(deltas):
                metrics.counter("delta_cache.hits").inc(len(deltas) - len(missed))
            if missed:
                metrics.counter("delta_cache.misses").inc(len(missed))
            if evicted:
                metrics.counter("delta_cache.evictions").inc(evicted)
        return deltas

    def _client_delta(
        self, round_idx: int, client_id: int, phase: int = 0, phi_fp: bytes | None = None
    ) -> np.ndarray:
        """:meth:`_client_deltas` of one client."""
        return self._client_deltas(round_idx, [client_id], phase, phi_fp)[0]

    def _client_deltas(
        self,
        round_idx: int,
        client_ids: list[int],
        phase: int = 0,
        phi_fp: bytes | None = None,
    ) -> list:
        """Compute (and optionally privatize) the clients' mean
        embeddings under the *current workspace model* parameters.

        Privacy noise draws from a dedicated ``(round, client, phase)``
        stream so the numbers do not depend on the order clients execute
        in (serial/parallel equivalence); ``phase`` separates multiple
        delta computations for the same client within one round.  Only
        the raw embedding is cached — noise is applied per call, so the
        cache cannot perturb the privacy stream.
        """
        assert self.model is not None and self.fed is not None and self.config is not None
        attrs = {"block": len(client_ids)} if len(client_ids) > 1 else {}
        with self.tracer.span("delta_compute", client=client_ids[0], **attrs):
            deltas = self._raw_deltas(client_ids, phi_fp)
            if self.privacy is not None:
                for i, client_id in enumerate(client_ids):
                    rng = np.random.default_rng(
                        [self.config.seed, round_idx, client_id, 0xD9, phase]
                    )
                    deltas[i] = self.privacy.privatize(
                        deltas[i], batch_size=len(self.fed.clients[client_id]), rng=rng
                    )
        return deltas

    def _traced_reg_hook(self, hook):
        """Wrap a regularizer hook so each evaluation emits a span."""
        if not self.tracer.enabled:
            return hook
        tracer = self.tracer

        def traced(features):
            with tracer.span("regularizer"):
                return hook(features)

        return traced
