"""q-FedAvg (Li et al., ICLR 2020 — "Fair Resource Allocation in FL").

q-FedAvg reweights client updates by their loss raised to the power q,
so high-loss (disadvantaged) clients pull the global model harder.  The
update follows the q-FFL paper: with F_k the client's loss at the round
start, L = 1/eta the Lipschitz estimate, and Delta_k = L * (w - w_k):

    h_k  = q * F_k^(q-1) * ||Delta_k||^2 + L * F_k^q
    w   <- w - sum_k F_k^q * Delta_k / sum_k h_k

q = 0 recovers (an unweighted variant of) FedAvg.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import FederatedAlgorithm
from repro.exceptions import ConfigError
from repro.fl.client import evaluate_model
from repro.fl.comm import CommLedger
from repro.fl.parallel import ClientUpdate
from repro.fl.server import RowSum

_EPS = 1e-10


class QFedAvg(FederatedAlgorithm):
    """Fairness-weighted federated averaging.

    Args:
        q: fairness exponent (paper: 1.0 on MNIST/CIFAR, 1e-4 on Sent140).
    """

    name = "qfedavg"

    def __init__(self, q: float = 1.0) -> None:
        super().__init__()
        if q < 0:
            raise ConfigError(f"q must be non-negative, got {q}")
        self.q = q

    def _client_update(self, round_idx: int, client_id: int) -> ClientUpdate:
        assert self.model is not None and self.fed is not None and self.config is not None
        # Loss of the *global* model on the client's data (F_k(w^t)),
        # measured before local training starts.
        self._load_global()
        start_loss, _acc = evaluate_model(
            self.model, self.fed.clients[client_id], self.config.eval_batch
        )
        update = super()._client_update(round_idx, client_id)
        update.payload = {"start_loss": max(start_loss, _EPS)}
        return update

    def _charge_uploads(self, selected: np.ndarray, updates: list[ClientUpdate]) -> None:
        super()._charge_uploads(selected, updates)
        assert self.ledger is not None
        # Each client additionally uploads its scalar h_k.
        self.ledger.charge(CommLedger.UP, "scalar", 1, copies=len(updates))

    def _open_fold(self, round_idx: int, cohort: np.ndarray, base: np.ndarray) -> "_QFold":
        assert self.config is not None
        return _QFold(base, 1.0 / self.config.lr)

    def _fold(self, fold: "_QFold", update: ClientUpdate) -> None:
        start_loss = update.payload["start_loss"]
        delta = fold.lipschitz * (fold.base - update.params)
        f_pow_q = start_loss**self.q
        fold.numerators.add(f_pow_q * delta)
        fold.denominators.append(
            self.q * start_loss ** (self.q - 1.0) * float(delta @ delta)
            + fold.lipschitz * f_pow_q
        )

    def _aggregate(self, round_idx: int, cohort: np.ndarray, fold: "_QFold") -> np.ndarray:
        total_h = float(np.sum(fold.denominators))
        return fold.base - fold.numerators.total / max(total_h, _EPS)


class _QFold:
    """A q-FedAvg round so far: ``sum_k F_k^q Delta_k`` and each client's
    scalar h_k (summed at the finish step, as one array, as before)."""

    def __init__(self, base: np.ndarray, lipschitz: float) -> None:
        self.base = base
        self.lipschitz = lipschitz
        self.numerators = RowSum()
        self.denominators: list[float] = []
