"""Client-side primitives: local SGD and model evaluation.

All six algorithms share the same local-training skeleton — E steps of
minibatch SGD on the task loss — and differ only in (a) an optional
regularizer evaluated on the feature activations (rFedAvg / rFedAvg+),
and (b) an optional gradient hook applied before the optimizer step
(FedProx's proximal term, SCAFFOLD's control variates).
:func:`local_sgd_steps` exposes both extension points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.fl.config import FLConfig
from repro.models.split import SplitModel
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.optim import ConstantLR, LRSchedule, make_optimizer


@dataclass
class LocalResult:
    """Outcome of one client's local training in one round."""

    mean_task_loss: float
    mean_reg_loss: float
    num_steps: int


# A regularizer hook maps the batch's feature activations (B, d) to
# (reg_loss, feature_grad) or None to skip.
RegHook = Callable[[np.ndarray], tuple[float, np.ndarray] | None]
# A gradient hook mutates model parameter gradients in place before the
# optimizer step (FedProx / SCAFFOLD corrections).
GradHook = Callable[[SplitModel], None]


def local_sgd_steps(
    model: SplitModel,
    data: ArrayDataset,
    config: FLConfig,
    rng: np.random.Generator,
    step_offset: int = 0,
    reg_hook: RegHook | None = None,
    grad_hook: GradHook | None = None,
) -> LocalResult:
    """Run E local minibatch-SGD steps on ``model`` (mutates it).

    Args:
        model: workspace model already loaded with the start parameters.
        data: the client's local shard.
        config: federated hyperparameters (E, B, optimizer, lr).
        rng: the client-round randomness source.
        step_offset: global step index t = c*E of the first local step,
            used by decaying learning-rate schedules.
        reg_hook: optional distribution-regularizer callback.
        grad_hook: optional parameter-gradient correction callback.

    Returns:
        Mean task loss and mean (lambda-weighted) regularizer loss over
        the E steps.
    """
    schedule: LRSchedule = (
        config.lr_schedule if config.lr_schedule is not None else ConstantLR(config.lr)
    )
    optimizer = make_optimizer(config.optimizer, model.parameters(), schedule)
    optimizer.step_count = step_offset
    loss_fn = SoftmaxCrossEntropy()
    model.train()

    task_losses = np.zeros(config.local_steps)
    reg_losses = np.zeros(config.local_steps)
    for i in range(config.local_steps):
        x, y = data.sample_batch(config.batch_size, rng)
        logits = model.forward(x)
        task_losses[i] = loss_fn.forward(logits, y)
        grad_out = loss_fn.backward()
        feature_grad = None
        if reg_hook is not None:
            reg = reg_hook(model.last_features)
            if reg is not None:
                reg_losses[i], feature_grad = reg
        model.zero_grad()
        model.backward(grad_out, feature_grad=feature_grad, input_grad=False)
        if grad_hook is not None:
            grad_hook(model)
        optimizer.step()

    # Drop forward caches: between rounds the workspace model only needs
    # its parameters, not the last batch's activations.
    model.free_buffers()
    return LocalResult(
        mean_task_loss=float(task_losses.mean()),
        mean_reg_loss=float(reg_losses.mean()),
        num_steps=config.local_steps,
    )


def evaluate_model(
    model: SplitModel, data: ArrayDataset, batch_size: int = 256
) -> tuple[float, float]:
    """Return (mean loss, accuracy) of ``model`` on ``data``."""
    loss_fn = SoftmaxCrossEntropy()
    model.eval()
    total_loss = 0.0
    correct = 0
    for x, y in data.batches(batch_size):
        logits = model.forward(x)
        total_loss += loss_fn.forward(logits, y) * len(y)
        correct += int((logits.argmax(axis=-1) == y).sum())
    model.train()
    model.free_buffers()
    n = len(data)
    return total_loss / n, correct / n


def compute_mean_embedding(
    model: SplitModel, data: ArrayDataset, batch_size: int = 256
) -> np.ndarray:
    """delta^k = (1/n_k) sum_j phi(x_{k,j}) under the model's current phi.

    Runs the feature extractor only (no classifier head), in eval mode,
    over the client's full shard.
    """
    model.eval()
    total = np.zeros(model.feature_dim)
    for x, _y in data.batches(batch_size):
        total += model.features.forward(x).sum(axis=0)
    model.train()
    model.free_buffers()
    return total / len(data)
