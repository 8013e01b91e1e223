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

    # The layout rule (and AUTO_SHARD_THRESHOLD) lives on the base
    # class now, shared with the error-feedback residual tables; the
    # alias keeps the historical name for the delta-table call sites.
    def _use_sharded_table(self, fed, config) -> bool:
        return self._use_sharded_state(fed, config)

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
        keys = (
            ("delta_table", "delta_reported")
            if "delta_table" in state
            else ("delta_ids", "delta_rows", "delta_reported")
        )
        self.delta_table.install_worker_segments({k: state[k] for k in keys})

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

    def _raw_delta(self, client_id: int, phi_fp: bytes | None = None) -> np.ndarray:
        """Client k's mean embedding under the current workspace model,
        through the delta cache when enabled.

        ``phi_fp`` is the fingerprint of the workspace model's phi, from a
        caller that loaded the model once and holds it fixed across many
        clients; without it phi is hashed here, per call.
        """
        assert self.model is not None and self.fed is not None and self.config is not None
        shard = self.fed.clients[client_id]
        if self.delta_cache is None:
            return compute_mean_embedding(self.model, shard, self.config.eval_batch)
        # The data fingerprint is recomputed on every call and phi's at
        # least once per loop that holds the model fixed, so stale hits
        # are impossible even under in-place parameter or data mutation
        # — provided such a loop does not mutate the model it hashed.
        if phi_fp is None:
            phi_fp = params_fingerprint(self.model.features)
        data_fp = shard.content_fingerprint()
        delta = self.delta_cache.lookup(client_id, phi_fp, data_fp)
        hit = delta is not None
        evicted = 0
        if not hit:
            delta = compute_mean_embedding(self.model, shard, self.config.eval_batch)
            before = self.delta_cache.evictions
            self.delta_cache.store(client_id, phi_fp, data_fp, delta)
            evicted = self.delta_cache.evictions - before
        if self.tracer.enabled:
            name = "delta_cache.hits" if hit else "delta_cache.misses"
            self.tracer.metrics.counter(name).inc()
            if evicted:
                self.tracer.metrics.counter("delta_cache.evictions").inc(evicted)
        return delta

    def _client_delta(
        self, round_idx: int, client_id: int, phase: int = 0, phi_fp: bytes | None = None
    ) -> np.ndarray:
        """Compute (and optionally privatize) client k's mean embedding
        under the *current workspace model* parameters.

        Privacy noise draws from a dedicated ``(round, client, phase)``
        stream so the numbers do not depend on the order clients execute
        in (serial/parallel equivalence); ``phase`` separates multiple
        delta computations for the same client within one round.  Only
        the raw embedding is cached — noise is applied per call, so the
        cache cannot perturb the privacy stream.
        """
        assert self.model is not None and self.fed is not None and self.config is not None
        with self.tracer.span("delta_compute", client=client_id):
            delta = self._raw_delta(client_id, phi_fp)
            if self.privacy is not None:
                shard = self.fed.clients[client_id]
                rng = np.random.default_rng(
                    [self.config.seed, round_idx, client_id, 0xD9, phase]
                )
                delta = self.privacy.privatize(delta, batch_size=len(shard), rng=rng)
        return delta

    def _traced_reg_hook(self, hook):
        """Wrap a regularizer hook so each evaluation emits a span."""
        if not self.tracer.enabled:
            return hook
        tracer = self.tracer

        def traced(features):
            with tracer.span("regularizer"):
                return hook(features)

        return traced

    def delta_payload_bytes(self) -> int:
        """Wire size of one delta vector."""
        assert self.model is not None and self.config is not None
        return self.model.feature_dim * self.config.wire_bytes_per_scalar()
