"""rFedAvg+ — Algorithm 2 of the paper.

Two changes over rFedAvg:

1. **Double synchronization.**  After aggregation the server broadcasts
   the *new global model* a second time and every participating client
   recomputes its delta with it, so all deltas in the table come from
   one consistent model (smaller convergence constant C2 < C3).
2. **Leave-one-out averaging.**  Instead of the full (N, d) table, each
   client receives only the average of the other clients' deltas
   ``delta^{-k}`` and optimizes ``r~_k = ||delta^k - delta^{-k}||^2``,
   which has the same gradient as the pairwise form but shrinks the
   broadcast from O(d N^2) to O(d N).

The price is a second model broadcast per round, which the ledger
charges honestly.  That broadcast (plus the delta re-upload) is the
``O(d N)`` term that dominates cross-device runs, so it gets its own
compression knob: ``FLConfig.sync_compression`` runs the second
synchronization through a :class:`~repro.fl.compression.CompressionPipeline`
— the server sends ``compress(new_global - round_global)`` (clients
already hold the round's phase-1 model, so only the aggregation step
crosses the wire) and every client sends back ``compress(delta_k)``,
each side keeping an error-feedback residual so the lossy exchange
stays convergent.  Deltas are then computed under the *reconstructed*
model on both sides, keeping server state and client state consistent.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import StateSlot, block_aware
from repro.algorithms.regularized import RegularizedAlgorithm
from repro.core.privacy import GaussianDeltaMechanism
from repro.core.regularizer import DistributionRegularizer
from repro.fl.comm import CommLedger
from repro.fl.compression import compressor_from_spec
from repro.nn.serialization import set_flat_params

# Dedicated rng stream tag for second-synchronization compression (the
# upload pipeline uses 0xC0, privacy deltas 0xD9).
_SYNC_STREAM = 0xD5


class RFedAvgPlus(RegularizedAlgorithm):
    """Distribution-regularized FedAvg with consistent global mappings."""

    name = "rfedavg+"

    # The compressed second sync's error-feedback residuals: the server's
    # for the model re-broadcast, one row per client for the delta
    # re-uploads.  Both run server-side, so no worker reads them.
    state_slots = RegularizedAlgorithm.state_slots + (
        StateSlot("sync_model_residual", "_sync_model_residual"),
        StateSlot("sync_delta_residuals", "_sync_delta_residuals"),
    )

    def __init__(
        self,
        lam: float = 1e-4,
        privacy: GaussianDeltaMechanism | None = None,
    ) -> None:
        super().__init__(lam, mode=DistributionRegularizer.LOO, privacy=privacy)
        self._sync_pipeline = None
        self._sync_model_residual: np.ndarray | None = None
        self._sync_delta_residuals = None
        self._sync_reference: np.ndarray | None = None

    def setup(self, model, fed, config) -> None:
        super().setup(model, fed, config)
        self._sync_pipeline = compressor_from_spec(config.sync_compression)
        self._sync_model_residual = None
        self._sync_delta_residuals = None
        self._sync_reference = None
        if self._sync_pipeline is not None and config.error_feedback:
            # Server-side residual for the model re-broadcast, per-client
            # residuals for the delta re-uploads (one more per-client
            # table, under the same row cap as the others).
            self._sync_model_residual = np.zeros(self.model_size, dtype=np.float64)
            self._sync_delta_residuals = self._make_state_table(model.feature_dim)

    @block_aware
    def _reg_hook(self, round_idx: int, client_id):
        """The leave-one-out hook of one client — or of a block of them:
        an array of ids stacks their targets to ``(K, d)``, and the hook
        then maps ``(K, B, d)`` features to ``K`` losses."""
        assert self.delta_table is not None
        if not self.delta_table.any_reported:
            return None
        if np.ndim(client_id):
            target = np.stack([self.delta_table.mean_of_others(int(c)) for c in client_id])
        else:
            target = self.delta_table.mean_of_others(client_id)
        regularizer = self.regularizer

        def hook(features: np.ndarray):
            result = regularizer.evaluate(features, target)
            return result.loss, result.feature_grad

        return self._traced_reg_hook(hook)

    def _charge_broadcast(self, selected: np.ndarray) -> None:
        """Phase-1 downlink: model + each client's own delta^{-k}."""
        super()._charge_broadcast(selected)
        assert self.ledger is not None and self.delta_table is not None
        if self.delta_table.any_reported:
            self.ledger.charge(
                CommLedger.DOWN,
                "delta",
                self.model.feature_dim,
                copies=len(selected),
            )

    def _aggregate_updates(self, round_idx, selected, updates):
        if self._sync_pipeline is not None:
            # The compressed second sync sends the *aggregation step*
            # relative to the model clients already hold — the round's
            # phase-1 global, which is the current value right before
            # aggregation replaces it (both execution engines call this
            # at that moment).
            self._sync_reference = self.global_params
        return super()._aggregate_updates(round_idx, selected, updates)

    def _synced_deltas(self, round_idx: int, client_ids, phase: int, params: np.ndarray):
        """Load ``params`` into the workspace model and yield ``(client,
        delta)`` for each client under it — a block of clients
        (:meth:`cohort_blocks`) at a time where their shards stack, so a
        block's deltas are all computed before its first is yielded."""
        set_flat_params(self.model, params)
        for block, refusal in self.cohort_blocks(client_ids):
            for group in [block] if refusal is None else [[cid] for cid in block]:
                yield from zip(group, self._client_deltas(round_idx, group, phase))

    def _post_aggregate(self, round_idx: int, selected: np.ndarray) -> None:
        """Phase 2: second sync — deltas from the fresh global model."""
        assert (
            self.ledger is not None
            and self.delta_table is not None
            and self.model is not None
        )
        if self._sync_pipeline is not None:
            self._post_aggregate_compressed(round_idx, selected)
            return
        with self.tracer.span("delta_sync"):
            # Server sends the aggregated model back down...
            self.ledger.charge(
                CommLedger.DOWN, "model", self.model_size, copies=len(selected)
            )
            # ...and every participating client computes its delta with it.
            for cid, delta in self._synced_deltas(round_idx, selected, 1, self.global_params):
                self.delta_table.update(cid, delta)
            self.ledger.charge(
                CommLedger.UP, "delta", self.model.feature_dim, copies=len(selected)
            )

    def _post_aggregate_compressed(self, round_idx: int, selected: np.ndarray) -> None:
        """Second sync through the ``sync_compression`` pipeline.

        Downlink: ``compress(new_global - round_global [+ e_model])``;
        clients reconstruct ``model_hat`` and compute their deltas under
        it.  Uplink: each delta goes back as ``compress(delta_k [+
        e_k])`` and the server stores the *reconstruction* — both sides
        see the same lossy values, so the leave-one-out targets stay
        consistent.  Everything runs server-side in selection order,
        which keeps serial/parallel/wire/async(zero-latency) runs
        bit-identical.
        """
        assert (
            self.global_params is not None
            and self._sync_reference is not None
            and self.config is not None
        )
        pipeline = self._sync_pipeline
        dtype_bytes = self.ledger.dtype_bytes
        feature_dim = self.model.feature_dim
        with self.tracer.span("delta_sync"):
            rng = np.random.default_rng([self.config.seed, round_idx, _SYNC_STREAM])
            target = self.global_params - self._sync_reference
            if self._sync_model_residual is not None:
                target = target + self._sync_model_residual
            recon, wire_size = pipeline.compress(target, rng)
            if self._sync_model_residual is not None:
                self._sync_model_residual = target - recon
            down_bytes = wire_size.nbytes(dtype_bytes) * len(selected)
            self.ledger.charge_bytes(CommLedger.DOWN, "model", down_bytes)
            # Clients hold the reconstructed model, so the deltas — and
            # next round's leave-one-out targets — are computed under it.
            model_hat = self._sync_reference + recon
            up_bytes = 0
            for cid, delta in self._synced_deltas(round_idx, selected, 1, model_hat):
                crng = np.random.default_rng(
                    [self.config.seed, round_idx, cid, _SYNC_STREAM, 1]
                )
                if self._sync_delta_residuals is not None:
                    delta = delta + self._sync_delta_residuals.get(cid)
                drecon, dws = pipeline.compress(delta, crng)
                if self._sync_delta_residuals is not None:
                    self._sync_delta_residuals.update(cid, delta - drecon)
                self.delta_table.update(cid, drecon)
                up_bytes += dws.nbytes(dtype_bytes)
            self.ledger.charge_bytes(CommLedger.UP, "delta", up_bytes)
            if self.tracer.enabled:
                dense = (self.model_size + feature_dim) * dtype_bytes * len(selected)
                saved = dense - down_bytes - up_bytes
                if saved > 0:
                    self.tracer.metrics.counter("compression.bytes_saved").inc(saved)
