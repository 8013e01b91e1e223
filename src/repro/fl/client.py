"""Client-side primitives: local SGD and model evaluation.

All six algorithms share the same local-training skeleton — E steps of
minibatch SGD on the task loss — and differ only in (a) an optional
regularizer evaluated on the feature activations (rFedAvg / rFedAvg+),
and (b) an optional gradient hook applied before the optimizer step
(FedProx's proximal term, SCAFFOLD's control variates).
:func:`local_sgd_steps` exposes both extension points.

The same loop trains a *block* of clients in one pass when the model's
layers take leading axes as batch axes (``Module.leading_axes``): the
clients' parameters are the rows of one arena
(:func:`repro.nn.serialization.stacked_params`), their batches are
stacked ``(K, B, ...)``, and every GEMM, loss and optimizer update runs
once over the stack with slice ``k`` the bytes client ``k`` alone would
compute.  :func:`compute_mean_embedding` takes a block of shards the
same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

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

# Minibatch of the forward-only passes (test loss, mean embeddings,
# q-FedAvg's start loss).  Those sums run block by block, so it fixes
# their last bits (accuracy is exact).
EVAL_BATCH = 256


def _sample_block(
    shards: Sequence[ArrayDataset], batch_size: int, rngs: Sequence[np.random.Generator]
) -> tuple[np.ndarray, np.ndarray]:
    """One minibatch per client, each from its own stream, stacked."""
    xs, ys = zip(*[shard.sample_batch(batch_size, rng) for shard, rng in zip(shards, rngs)])
    return np.stack(xs), np.stack(ys)


def local_sgd_steps(
    model: SplitModel,
    data: ArrayDataset | Sequence[ArrayDataset],
    config: FLConfig,
    rng: np.random.Generator | Sequence[np.random.Generator],
    step_offset: int = 0,
    reg_hook: RegHook | None = None,
    grad_hook: GradHook | None = None,
) -> LocalResult | list[LocalResult]:
    """Run E local minibatch-SGD steps on ``model`` (mutates it).

    Args:
        model: workspace model already loaded with the start parameters.
        data: the client's local shard — or, for a block of clients, the
            list of their shards (every one at least ``batch_size`` long)
            with ``model``'s parameters stacked one row a client.
        config: federated hyperparameters (E, B, optimizer, lr).
        rng: the client-round randomness source; for a block, one per
            client, each consumed exactly as that client alone would.
        step_offset: global step index t = c*E of the first local step,
            used by decaying learning-rate schedules.
        reg_hook: optional distribution-regularizer callback; for a block
            it sees (K, B, d) features and returns K losses.
        grad_hook: optional parameter-gradient correction callback.

    Returns:
        Mean task loss and mean (lambda-weighted) regularizer loss over
        the E steps — for a block, one result per client, in order.
    """
    block = isinstance(data, (list, tuple))
    schedule: LRSchedule = (
        config.lr_schedule if config.lr_schedule is not None else ConstantLR(config.lr)
    )
    optimizer = make_optimizer(config.optimizer, model.parameters(), schedule)
    optimizer.step_count = step_offset
    loss_fn = SoftmaxCrossEntropy()
    model.train()

    # Steps along the last axis: a client's mean is then the same
    # contiguous reduction whether or not it trained in a block.
    lead = (len(data),) if block else ()
    task_losses = np.zeros((*lead, config.local_steps))
    reg_losses = np.zeros((*lead, config.local_steps))
    for i in range(config.local_steps):
        if block:
            x, y = _sample_block(data, config.batch_size, rng)
        else:
            x, y = data.sample_batch(config.batch_size, rng)
        logits = model.forward(x)
        task_losses[..., i] = loss_fn.forward(logits, y)
        grad_out = loss_fn.backward()
        feature_grad = None
        if reg_hook is not None:
            reg = reg_hook(model.last_features)
            if reg is not None:
                reg_losses[..., i], feature_grad = reg
        model.zero_grad()
        model.backward(grad_out, feature_grad=feature_grad, input_grad=False)
        if grad_hook is not None:
            grad_hook(model)
        optimizer.step()

    # Drop forward caches: between rounds the workspace model only needs
    # its parameters, not the last batch's activations.
    model.free_buffers()
    task, reg = task_losses.mean(axis=-1), reg_losses.mean(axis=-1)
    if block:
        return [
            LocalResult(float(t), float(r), config.local_steps) for t, r in zip(task, reg)
        ]
    return LocalResult(
        mean_task_loss=float(task),
        mean_reg_loss=float(reg),
        num_steps=config.local_steps,
    )


def evaluate_model(
    model: SplitModel, data: ArrayDataset, batch_size: int = EVAL_BATCH
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
    model: SplitModel,
    data: ArrayDataset | Sequence[ArrayDataset],
    batch_size: int = EVAL_BATCH,
) -> np.ndarray:
    """delta^k = (1/n_k) sum_j phi(x_{k,j}) under the model's current phi.

    Runs the feature extractor only (no classifier head), in eval mode,
    over the client's full shard.  A list of K equal-length shards runs
    as one (K, n, ...) stack through the same (2-D) phi and gives the K
    embeddings as rows, each the bytes of the call on that shard alone.
    """
    model.eval()
    if isinstance(data, (list, tuple)):
        stacked = np.stack([shard.x for shard in data])
        count = stacked.shape[1]
        batches = (
            stacked[:, start : start + batch_size] for start in range(0, count, batch_size)
        )
        total = np.zeros((len(data), model.feature_dim))
    else:
        count = len(data)
        batches = (x for x, _y in data.batches(batch_size))
        total = np.zeros(model.feature_dim)
    for x in batches:
        total += model.features.forward(x).sum(axis=-2)
    model.train()
    model.free_buffers()
    return total / count
