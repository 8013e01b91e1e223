"""Post-hoc personalization (the paper's future-work direction).

The conclusion suggests combining the centralized framework with
"personalized federated learning ... to improve the generalization of
the global model and the personalization performance of local models
simultaneously."  This module implements the standard strong baseline
for that direction: **local fine-tuning** — after federated training,
each client adapts a copy of the global model to its own shard for a few
steps, and we measure both the personalized local accuracy and the
retained global accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.data.dataset import FederatedDataset
from repro.fl.client import evaluate_model, local_sgd_steps
from repro.fl.config import FLConfig
from repro.models.split import SplitModel
from repro.nn.serialization import set_flat_params


@dataclass
class PersonalizationResult:
    """Per-client accuracies before and after local fine-tuning."""

    global_local_accuracy: np.ndarray  # global model on each client's data
    personalized_local_accuracy: np.ndarray  # fine-tuned model, same data
    personalized_global_accuracy: np.ndarray  # fine-tuned model on test set

    def mean_personalization_gain(self) -> float:
        """Average local-accuracy improvement from fine-tuning."""
        return float(
            (self.personalized_local_accuracy - self.global_local_accuracy).mean()
        )

    def mean_forgetting(self, global_test_accuracy: float) -> float:
        """Average drop in global-test accuracy caused by fine-tuning."""
        return float(
            (global_test_accuracy - self.personalized_global_accuracy).mean()
        )


def personalize(
    global_params: np.ndarray,
    fed: FederatedDataset,
    model_fn: Callable[[], SplitModel],
    finetune_steps: int = 10,
    lr: float = 0.05,
    batch_size: int = 16,
    seed: int = 0,
) -> PersonalizationResult:
    """Fine-tune the global model locally on every client.

    Args:
        global_params: the trained global flat parameter vector.
        fed: the federation whose clients personalize.
        model_fn: the model factory used in training.
        finetune_steps: local SGD steps per client.
        lr: fine-tuning learning rate.
        batch_size: fine-tuning minibatch size.
        seed: randomness for batch draws.
    """
    model = model_fn()
    config = FLConfig(
        rounds=1, local_steps=finetune_steps, batch_size=batch_size, lr=lr, seed=seed
    )
    num_clients = fed.num_clients
    before = np.zeros(num_clients)
    after_local = np.zeros(num_clients)
    after_global = np.zeros(num_clients)

    for cid, shard in enumerate(fed.clients):
        set_flat_params(model, global_params)
        _loss, acc = evaluate_model(model, shard)
        before[cid] = acc
        rng = np.random.default_rng([seed, 0xBE57, cid])
        local_sgd_steps(model, shard, config, rng)
        _loss, after_local[cid] = evaluate_model(model, shard)
        _loss, after_global[cid] = evaluate_model(model, fed.test)
    return PersonalizationResult(
        global_local_accuracy=before,
        personalized_local_accuracy=after_local,
        personalized_global_accuracy=after_global,
    )
