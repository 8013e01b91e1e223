"""FedAvgM — FedAvg with server-side momentum (Hsu et al. 2019).

A standard non-IID mitigation from the same literature the paper draws
its baselines from: the server treats the round's average update as a
pseudo-gradient and applies heavy-ball momentum to it, which damps the
oscillation that label-skewed rounds induce (the instability visible in
the paper's Fig. 4/5 baseline curves).
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import FederatedAlgorithm, StateSlot
from repro.exceptions import ConfigError
from repro.fl.server import weighted_average


class FedAvgM(FederatedAlgorithm):
    """FedAvg + server momentum.

    Args:
        server_momentum: heavy-ball coefficient beta in [0, 1).
        server_lr: scale on the aggregated update (1.0 = plain FedAvg
            direction).
    """

    name = "fedavgm"

    # The server momentum never leaves the server.
    state_slots = FederatedAlgorithm.state_slots + (StateSlot("velocity", "_velocity"),)

    def __init__(self, server_momentum: float = 0.9, server_lr: float = 1.0) -> None:
        super().__init__()
        if not 0.0 <= server_momentum < 1.0:
            raise ConfigError(f"server_momentum must be in [0, 1), got {server_momentum}")
        if server_lr <= 0:
            raise ConfigError("server_lr must be positive")
        self.server_momentum = server_momentum
        self.server_lr = server_lr
        self._velocity: np.ndarray | None = None

    def setup(self, model, fed, config) -> None:
        super().setup(model, fed, config)
        self._velocity = np.zeros(self.model_size)

    def _aggregate(
        self, round_idx: int, selected: np.ndarray, updates: list[np.ndarray]
    ) -> np.ndarray:
        assert (
            self.fed is not None
            and self.global_params is not None
            and self._velocity is not None
        )
        weights = self.fed.client_sizes[selected].astype(np.float64)
        averaged = weighted_average(updates, weights)
        pseudo_grad = self.global_params - averaged
        self._velocity = self.server_momentum * self._velocity + pseudo_grad
        return self.global_params - self.server_lr * self._velocity
