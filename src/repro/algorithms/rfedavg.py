"""rFedAvg — Algorithm 1 of the paper.

Each round the server broadcasts the global model *and the full table of
per-client deltas* from the previous round; each client runs E local
SGD steps on ``f_k + lambda * r'_k`` where the regularizer measures the
squared MMD between the client's *current* batch embedding and every
other client's *delayed* delta.  After local training the client
recomputes its own delta **with its final local model** (the per-client
inconsistency the Remarks in Sec. IV-B call out, and the reason
Theorem 2's constant C3 exceeds Theorem 1's C2) and uploads it with the
model.

Communication per round: the table broadcast costs O(d * N) per client,
O(d * N^2) total — the overhead rFedAvg+ removes.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.regularized import RegularizedAlgorithm
from repro.core.privacy import GaussianDeltaMechanism
from repro.core.regularizer import DistributionRegularizer
from repro.fl.comm import CommLedger
from repro.fl.parallel import ClientUpdate


class RFedAvg(RegularizedAlgorithm):
    """Distribution-regularized FedAvg with delayed per-client mappings."""

    name = "rfedavg"

    def __init__(
        self,
        lam: float = 1e-4,
        privacy: GaussianDeltaMechanism | None = None,
    ) -> None:
        super().__init__(lam, mode=DistributionRegularizer.PAIRWISE, privacy=privacy)

    def _reg_hook(self, round_idx: int, client_id: int):
        assert self.delta_table is not None
        table = self.delta_table
        if not table.any_reported:
            # Round 0: the delta table still holds the zero placeholder;
            # regularizing toward it would be meaningless, so skip.
            return None
        others = self._others_rows(client_id)
        if others is None:
            return None
        regularizer = self.regularizer

        def hook(features: np.ndarray):
            result = regularizer.evaluate(features, others)
            return result.loss, result.feature_grad

        return self._traced_reg_hook(hook)

    def _others_rows(self, client_id: int) -> np.ndarray | None:
        """Reported delta rows of every client except ``client_id``.

        Goes through :meth:`DeltaTable.reported_rows_except`, so the
        (N, d) table is never materialized here.
        """
        assert self.delta_table is not None
        return self.delta_table.reported_rows_except(client_id)

    def _charge_broadcast(self, selected: np.ndarray) -> None:
        # Downlink: model + the full (N, d) delta table per client.
        super()._charge_broadcast(selected)
        assert (
            self.ledger is not None
            and self.delta_table is not None
            and self.fed is not None
        )
        if self.delta_table.any_reported:
            self.ledger.charge(
                CommLedger.DOWN,
                "delta",
                self.fed.num_clients * self.model.feature_dim,
                copies=len(selected),
            )

    def _client_payload(
        self, round_idx: int, client_id: int, params: np.ndarray
    ) -> dict:
        # Delta computed with the client's final *local* model — the
        # inconsistent mapping that motivates rFedAvg+ (the workspace
        # model still holds the local parameters here).
        return {"delta": self._client_delta(round_idx, client_id)}

    def _charge_uploads(self, selected: np.ndarray, updates: list[ClientUpdate]) -> None:
        # Uplink: model + own delta per client.
        super()._charge_uploads(selected, updates)
        assert self.ledger is not None
        self.ledger.charge(
            CommLedger.UP, "delta", self.model.feature_dim, copies=len(updates)
        )

    # The table is read whole by every client's regularizer, so the
    # cohort's deltas are written at the finish step, not as each update
    # commits: under the serial engine a streamed write would reach
    # later clients of the same round.
    def _open_fold(self, round_idx: int, cohort: np.ndarray, base: np.ndarray):
        return super()._open_fold(round_idx, cohort, base), []

    def _fold(self, fold, update: ClientUpdate) -> None:
        mean, deltas = fold
        super()._fold(mean, update)
        deltas.append((update.client_id, update.payload["delta"]))

    def _aggregate(self, round_idx: int, cohort: np.ndarray, fold) -> np.ndarray:
        assert self.delta_table is not None
        mean, deltas = fold
        for client_id, delta in deltas:
            self.delta_table.update(client_id, delta)
        return super()._aggregate(round_idx, cohort, mean)
