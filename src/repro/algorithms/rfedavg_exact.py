"""Exact-regularizer reference variant (ablation baseline).

The paper rejects computing the regularizer with *up-to-date* mappings
because every gradient step would need fresh pairwise communication
(Sec. IV, "at least O(N^2) communication overhead in a single round").
This variant simulates that naive algorithm as an upper-bound reference
for the delayed-mapping ablation:

* at the start of every round the deltas of **all** clients are
  recomputed from the current global model (freshest possible state
  short of per-step exchange);
* the ledger charges a per-step all-pairs exchange — E * N * (N-1)
  delta transfers per round — making the infeasibility quantitative.

The refresh costs N mean-embedding passes a round (stacked in blocks
where the shards stack) on top of the second sync's pass over the
cohort; last round's cohort is embedded again under the same global
model its second sync used.

Accuracy-wise this is the best the regularizer can do; the ablation
bench shows rFedAvg+ tracks it closely at a fraction of the traffic.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.regularized import RegularizedAlgorithm
from repro.algorithms.rfedavg_plus import RFedAvgPlus
from repro.core.privacy import GaussianDeltaMechanism
from repro.fl.comm import CommLedger


class RFedAvgExact(RFedAvgPlus):
    """Up-to-date-mapping regularization with honest O(E N^2) accounting."""

    name = "rfedavg_exact"

    # _pre_round refreshes the deltas of *all* clients from one current
    # global model; with several drifting region models that notion is
    # ill-defined, so the hierarchical engine refuses R > 1 (hier:1:P
    # still works — one region is one global model).
    region_aggregation_safe = False

    def __init__(
        self,
        lam: float = 1e-4,
        privacy: GaussianDeltaMechanism | None = None,
    ) -> None:
        super().__init__(lam, privacy=privacy)

    def _pre_round(self, round_idx: int, selected: np.ndarray) -> None:
        assert (
            self.fed is not None
            and self.ledger is not None
            and self.delta_table is not None
            and self.config is not None
        )
        # Refresh every client's delta from the current global model.
        # This is O(N) work per round by design (the point of the
        # ablation); refuse population scales where "every client" stops
        # being a simulable notion instead of silently grinding forever.
        if self.fed.num_clients > 100_000:
            from repro.exceptions import ConfigError

            raise ConfigError(
                "rfedavg_exact recomputes every client's delta each round "
                f"(O(N) per round); population {self.fed.num_clients} is "
                "beyond its reference-baseline scope — use rfedavg+ for "
                "cross-device populations"
            )
        everyone = range(self.fed.num_clients)
        for cid, delta in self._synced_deltas(round_idx, everyone, 2, self.global_params):
            self.delta_table.update(cid, delta)
        # Charge the per-step all-pairs delta exchange the naive
        # algorithm would need: E steps x N clients x (N-1) peers.
        num_clients = self.fed.num_clients
        self.ledger.charge(
            CommLedger.UP,
            "delta",
            self.model.feature_dim,
            copies=self.config.local_steps * num_clients * (num_clients - 1),
        )
