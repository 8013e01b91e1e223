"""SCAFFOLD (Karimireddy et al., ICML 2020).

SCAFFOLD corrects client drift with control variates: the server keeps a
global control ``c`` and each client a local control ``c_k``; local
gradients are corrected by ``(c - c_k)``, and after E steps the client
refreshes its control with option-II:

    c_k+ = c_k - c + (x - y_k) / (E * eta_l)

The server then moves the global model by ``eta_g`` times the average
model delta and the global control by the participation-weighted average
control delta.  Communication doubles in both directions (model +
control), which the ledger charges.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import WHOLE, FederatedAlgorithm, StateSlot
from repro.core.delta import CohortRows, DeltaTable
from repro.exceptions import ConfigError
from repro.fl.comm import CommLedger
from repro.fl.parallel import ClientUpdate
from repro.fl.server import RowSum
from repro.models.split import SplitModel
from repro.nn.optim import ConstantLR
from repro.nn.serialization import add_flat_to_grads, get_flat_params


class Scaffold(FederatedAlgorithm):
    """SCAFFOLD with option-II control updates.

    Args:
        eta_g: server learning rate (the paper sets 1.0 everywhere).
    """

    name = "scaffold"

    # Every task reads the server control c, and its own client's c_k.
    state_slots = FederatedAlgorithm.state_slots + (
        StateSlot("server_control", reads=WHOLE),
        StateSlot("client_controls", reads="controls."),
    )

    def __init__(self, eta_g: float = 1.0) -> None:
        super().__init__()
        if eta_g <= 0:
            raise ConfigError(f"eta_g must be positive, got {eta_g}")
        self.eta_g = eta_g
        self.server_control: np.ndarray | None = None
        self.client_controls: DeltaTable | CohortRows | None = None

    def setup(self, model, fed, config) -> None:
        super().setup(model, fed, config)
        self.server_control = np.zeros(self.model_size)
        self.client_controls = self._make_state_table(self.model_size)

    def _grad_hook(self, round_idx: int, client_id: int):
        assert self.server_control is not None and self.client_controls is not None
        correction = self.server_control - self.client_controls.get(client_id)

        def hook(model: SplitModel) -> None:
            add_flat_to_grads(model, correction)

        return hook

    def _local_lr(self, round_idx: int) -> float:
        """Learning rate used in the control refresh (schedule-aware)."""
        assert self.config is not None
        schedule = self.config.lr_schedule
        if schedule is None:
            schedule = ConstantLR(self.config.lr)
        return schedule.rate(round_idx * self.config.local_steps)

    def _charge_broadcast(self, selected: np.ndarray) -> None:
        # Downlink: model + server control to every selected client.
        super()._charge_broadcast(selected)
        assert self.ledger is not None
        self.ledger.charge(
            CommLedger.DOWN, "control", self.model_size, copies=len(selected)
        )

    def _client_update(self, round_idx: int, client_id: int) -> ClientUpdate:
        assert (
            self.config is not None
            and self.global_params is not None
            and self.server_control is not None
            and self.client_controls is not None
        )
        update = super()._client_update(round_idx, client_id)
        # Option-II control refresh from the client's true local model
        # (the workspace still holds it; the upload pipeline only
        # transforms the reported copy).
        y_k = get_flat_params(self.model)
        control = self.client_controls.get(client_id)
        new_control = (
            control
            - self.server_control
            + (self.global_params - y_k)
            / (self.config.local_steps * self._local_lr(round_idx))
        )
        update.payload = {"new_control": new_control, "delta_c": new_control - control}
        return update

    def _charge_uploads(self, selected: np.ndarray, updates: list[ClientUpdate]) -> None:
        # Uplink: model delta + control delta per client.
        super()._charge_uploads(selected, updates)
        assert self.ledger is not None
        self.ledger.charge(
            CommLedger.UP, "control", self.model_size, copies=len(updates)
        )

    def _commit_client(self, round_idx: int, update: ClientUpdate) -> None:
        super()._commit_client(round_idx, update)
        assert self.client_controls is not None
        self.client_controls.update(update.client_id, update.payload["new_control"])

    def _open_fold(self, round_idx: int, cohort: np.ndarray, base: np.ndarray) -> "_ScaffoldFold":
        return _ScaffoldFold(base)

    def _fold(self, fold: "_ScaffoldFold", update: ClientUpdate) -> None:
        fold.model_deltas.add(update.params - fold.base)
        fold.control_deltas.add(update.payload["delta_c"])

    def _aggregate(self, round_idx: int, cohort: np.ndarray, fold: "_ScaffoldFold") -> np.ndarray:
        assert self.fed is not None and self.server_control is not None
        mean_dy = fold.model_deltas.total / fold.model_deltas.count
        mean_dc = fold.control_deltas.total / fold.control_deltas.count
        self.server_control = self.server_control + (
            len(cohort) / self.fed.num_clients
        ) * mean_dc
        return fold.base + self.eta_g * mean_dy


class _ScaffoldFold:
    """A SCAFFOLD round so far: the sums of the model deltas ``y_k - x``
    and of the control deltas, a mean each at the finish step."""

    def __init__(self, base: np.ndarray) -> None:
        self.base = base
        self.model_deltas = RowSum()
        self.control_deltas = RowSum()
