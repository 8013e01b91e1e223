"""Shared machinery for the distribution-regularized algorithms."""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import WHOLE, FederatedAlgorithm, StateSlot
from repro.core.delta import DeltaTable
from repro.core.privacy import GaussianDeltaMechanism
from repro.core.regularizer import DistributionRegularizer
from repro.exceptions import ConfigError
from repro.fl.client import compute_mean_embedding


class RegularizedAlgorithm(FederatedAlgorithm):
    """Base for rFedAvg variants: owns the delta table and regularizer.

    Args:
        lam: regularization weight lambda (Eq. 3); also acts as the
            normalization coefficient, so good values are dataset
            dependent (paper: 1e-4 MNIST, 1e-5 CIFAR, 0.1 Sent140).
        mode: 'pairwise' or 'loo' — which r_k form the clients optimize.
        privacy: optional Gaussian mechanism applied to every delta a
            client uploads (Fig. 12).
    """

    name = "regularized-base"

    # Every client's regularizer reads the other clients' rows, so the
    # delta table travels whole (its segments at the checkpoint's top
    # level).
    state_slots = FederatedAlgorithm.state_slots + (
        StateSlot(None, "delta_table", reads=WHOLE),
    )

    def __init__(
        self,
        lam: float,
        mode: str,
        privacy: GaussianDeltaMechanism | None = None,
    ) -> None:
        super().__init__()
        if lam < 0:
            raise ConfigError(f"lambda must be non-negative, got {lam}")
        self.lam = lam
        self.regularizer = DistributionRegularizer(lam, mode=mode)
        self.privacy = privacy
        self.delta_table: DeltaTable | None = None

    def setup(self, model, fed, config) -> None:
        super().setup(model, fed, config)
        self.delta_table = self._make_state_table(model.feature_dim)

    def _client_delta(self, round_idx: int, client_id: int, phase: int = 0) -> np.ndarray:
        """:meth:`_client_deltas` of one client."""
        return self._client_deltas(round_idx, [client_id], phase)[0]

    def _client_deltas(self, round_idx: int, client_ids: list[int], phase: int = 0) -> list:
        """Compute (and optionally privatize) the clients' mean
        embeddings under the *current workspace model* parameters.  One
        shard goes through the model as it always did (any model); more
        than one is a block :meth:`stack_refusal` passed, embedded as one
        stack and returned as rows.

        Privacy noise draws from a dedicated ``(round, client, phase)``
        stream so the numbers do not depend on the order clients execute
        in (serial/parallel equivalence); ``phase`` separates multiple
        delta computations for the same client within one round.
        """
        assert self.model is not None and self.fed is not None and self.config is not None
        attrs = {"block": len(client_ids)} if len(client_ids) > 1 else {}
        with self.tracer.span("delta_compute", client=client_ids[0], **attrs):
            shards = [self.fed.clients[client_id] for client_id in client_ids]
            data = shards[0] if len(shards) == 1 else shards
            rows = compute_mean_embedding(self.model, data)
            deltas = [rows] if len(shards) == 1 else list(rows)
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
