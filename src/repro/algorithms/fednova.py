"""FedNova (Wang et al., NeurIPS 2020) — normalized averaging.

Reference [30] of the paper ("tackling the objective inconsistency
problem in heterogeneous federated optimization").  When clients run
different numbers of local steps (or the same number with different
effective progress), plain FedAvg optimizes a mismatched objective;
FedNova normalizes each client's cumulative update by its local step
count before averaging, then applies the weighted-average effective step:

    d_k  = (x - y_k) / tau_k                (normalized update direction)
    x   <- x - (sum_k p_k tau_k) * sum_k p_k d_k

With homogeneous tau_k this reduces to FedAvg, which the tests verify.
This implementation also supports heterogeneous local steps via the
``local_steps_fn`` knob (clients may do fewer steps than E — stragglers).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.algorithms.base import FederatedAlgorithm
from repro.fl.config import FLConfig
from repro.fl.parallel import ClientUpdate
from repro.fl.server import RowSum


class FedNova(FederatedAlgorithm):
    """Normalized-averaging FedAvg variant.

    Args:
        local_steps_fn: optional (round, client) -> step count override,
            for simulating heterogeneous local work.  Defaults to the
            config's E everywhere.
    """

    name = "fednova"

    def __init__(self, local_steps_fn: Callable[[int, int], int] | None = None) -> None:
        super().__init__()
        self.local_steps_fn = local_steps_fn

    def _steps_for(self, round_idx: int, client_id: int) -> int:
        assert self.config is not None
        if self.local_steps_fn is None:
            return self.config.local_steps
        steps = int(self.local_steps_fn(round_idx, client_id))
        return max(1, steps)

    def _local_config(self, round_idx: int, client_id: int) -> FLConfig:
        assert self.config is not None
        tau = self._steps_for(round_idx, client_id)
        if tau == self.config.local_steps:
            return self.config
        return self.config.with_updates(local_steps=tau)

    def _open_fold(self, round_idx: int, cohort: np.ndarray, base: np.ndarray) -> "_NovaFold":
        assert self.fed is not None
        weights = self.fed.client_sizes[cohort].astype(np.float64)
        weights /= weights.sum()
        return _NovaFold(base, weights)

    def _fold(self, fold: "_NovaFold", update: ClientUpdate) -> None:
        tau = update.num_steps
        direction = (fold.base - update.params) / tau
        fold.directions.add(fold.weights[len(fold.taus)] * direction)
        fold.taus.append(tau)

    def _aggregate(self, round_idx: int, cohort: np.ndarray, fold: "_NovaFold") -> np.ndarray:
        effective_tau = float(np.dot(fold.weights, fold.taus))
        return fold.base - effective_tau * fold.directions.total


class _NovaFold:
    """A FedNova round so far: ``sum_k p_k d_k`` and each client's tau_k."""

    def __init__(self, base: np.ndarray, weights: np.ndarray) -> None:
        self.base = base
        self.weights = weights
        self.directions = RowSum()
        self.taus: list[int] = []
