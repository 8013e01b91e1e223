"""MOON — Model-Contrastive Federated Learning (Li et al., CVPR 2021).

A leading non-IID baseline from the same literature as the paper's
comparison set.  MOON adds a per-sample contrastive term to the local
objective: the current local model's feature z should be similar to the
*global* model's feature z_glob of the same input and dissimilar to the
*previous local* model's feature z_prev:

    l_con = -log( exp(cos(z, z_glob)/T) /
                  (exp(cos(z, z_glob)/T) + exp(cos(z, z_prev)/T)) )

Only z receives gradient (z_glob and z_prev come from frozen models).
This implementation derives the cosine-similarity gradient by hand and
injects it through the same feature-gradient hook the MMD regularizer
uses, so the entire backward pass remains exact (finite-difference
checked in the tests).

MOON and the paper's rFedAvg+ are philosophically adjacent — both
regularize the *feature space* — but MOON aligns each client to the
global model per-sample while rFedAvg+ aligns client *distributions* to
each other via mean embeddings.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import FederatedAlgorithm, StateSlot
from repro.core.delta import CohortRows, DeltaTable
from repro.exceptions import ConfigError
from repro.fl.parallel import ClientUpdate
from repro.models.split import SplitModel
from repro.nn.serialization import get_flat_params, set_flat_params


def _cosine_and_grad(z: np.ndarray, anchor: np.ndarray, eps: float = 1e-12):
    """Row-wise cosine similarity and its gradient with respect to z."""
    z_norm = np.linalg.norm(z, axis=1, keepdims=True) + eps
    a_norm = np.linalg.norm(anchor, axis=1, keepdims=True) + eps
    dot = (z * anchor).sum(axis=1, keepdims=True)
    cos = dot / (z_norm * a_norm)
    grad = anchor / (z_norm * a_norm) - cos * z / (z_norm**2)
    return cos[:, 0], grad


def contrastive_loss_and_grad(
    z: np.ndarray,
    z_global: np.ndarray,
    z_prev: np.ndarray,
    temperature: float,
    mu: float,
) -> tuple[float, np.ndarray]:
    """MOON's l_con (batch mean, weighted by mu) and its z-gradient."""
    cos_g, dcos_g = _cosine_and_grad(z, z_global)
    cos_p, dcos_p = _cosine_and_grad(z, z_prev)
    logits_g = cos_g / temperature
    logits_p = cos_p / temperature
    # Stable two-way softmax.
    m = np.maximum(logits_g, logits_p)
    exp_g = np.exp(logits_g - m)
    exp_p = np.exp(logits_p - m)
    prob_g = exp_g / (exp_g + exp_p)
    loss = float(-np.log(np.maximum(prob_g, 1e-12)).mean()) * mu
    batch = z.shape[0]
    # d loss / d cos = mu/(batch*T) * (prob - onehot); target class is "global".
    coeff = mu / (batch * temperature)
    grad = coeff * (
        (prob_g - 1.0)[:, None] * dcos_g + (1.0 - prob_g)[:, None] * dcos_p
    )
    return loss, grad


class Moon(FederatedAlgorithm):
    """Model-contrastive federated learning.

    Args:
        mu: weight of the contrastive term (the MOON paper uses 1-10).
        temperature: softmax temperature T (MOON default 0.5).
    """

    name = "moon"

    # A task reads its own client's previous local model only.
    state_slots = FederatedAlgorithm.state_slots + (
        StateSlot("prev_params", "_prev_params", reads="prev."),
    )

    def __init__(self, mu: float = 1.0, temperature: float = 0.5) -> None:
        super().__init__()
        if mu < 0:
            raise ConfigError(f"mu must be non-negative, got {mu}")
        if temperature <= 0:
            raise ConfigError(f"temperature must be positive, got {temperature}")
        self.mu = mu
        self.temperature = temperature
        # per-client previous models (a worker holds its cohort's rows)
        self._prev_params: DeltaTable | CohortRows | None = None
        self._frozen: SplitModel | None = None  # scratch model for z_glob/z_prev

    def setup(self, model, fed, config) -> None:
        super().setup(model, fed, config)
        # Every client starts from the same initial model, so "previous
        # local model" is the initial global model until the client has
        # trained: the table's default row, stored once.
        self._prev_params = self._make_state_table(
            self.model_size, default=get_flat_params(model)
        )
        # An independent frozen copy for anchor feature computation; its
        # weights are overwritten before every use.
        import copy

        self._frozen = copy.deepcopy(model)

    def _anchor_features(self, params: np.ndarray, x: np.ndarray) -> np.ndarray:
        assert self._frozen is not None
        set_flat_params(self._frozen, params)
        self._frozen.eval()
        return self._frozen.features.forward(x)

    def _train_one_client(self, round_idx, client_id, reg_hook=None, grad_hook=None):
        """Override to wire the contrastive hook, which needs the batch
        inputs — captured by wrapping the data sampler is invasive, so
        we instead recompute anchors from the features' cached input via
        a stateful hook bound to this client round."""
        assert (
            self.model is not None
            and self.fed is not None
            and self.config is not None
            and self.global_params is not None
            and self._prev_params is not None
        )
        global_snapshot = np.array(self.global_params, copy=True)
        prev_snapshot = self._prev_params.get(client_id)

        # local_sgd_steps calls the reg hook with the *features* of the
        # current batch; MOON additionally needs the raw inputs, which we
        # intercept by wrapping the shard's sampler.
        shard = self.fed.clients[client_id]
        current_batch: dict = {}

        class _TappedShard:
            """Proxy that records each sampled batch's inputs."""

            def __len__(self_inner) -> int:
                return len(shard)

            def sample_batch(self_inner, batch_size, rng):
                x, y = shard.sample_batch(batch_size, rng)
                current_batch["x"] = x
                return x, y

        def moon_hook(features: np.ndarray):
            x = current_batch["x"]
            z_global = self._anchor_features(global_snapshot, x)
            z_prev = self._anchor_features(prev_snapshot, x)
            loss, grad = contrastive_loss_and_grad(
                features, z_global, z_prev, self.temperature, self.mu
            )
            return loss, grad

        from repro.fl.client import local_sgd_steps

        self._load_global()
        result = local_sgd_steps(
            self.model,
            _TappedShard(),  # type: ignore[arg-type]
            self.config,
            self.client_rng(round_idx, client_id),
            step_offset=round_idx * self.config.local_steps,
            reg_hook=moon_hook if self.mu > 0 else None,
        )
        return get_flat_params(self.model), result

    def _client_payload(
        self, round_idx: int, client_id: int, params: np.ndarray
    ) -> dict:
        # The next round's "previous local model" is this round's final
        # *local* model (the workspace still holds it; ``params`` may
        # already be fault/compression-transformed).  Stored at commit
        # time so the worker-side unit stays free of shared-state writes.
        return {"prev_params": get_flat_params(self.model)}

    def _commit_client(self, round_idx: int, update: ClientUpdate) -> None:
        super()._commit_client(round_idx, update)
        assert self._prev_params is not None
        self._prev_params.update(update.client_id, update.payload["prev_params"])
