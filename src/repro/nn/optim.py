"""Optimizers and learning-rate schedules.

The paper trains the CNN models with plain SGD and the Sent140 LSTM with
RMSProp; the convergence theory (Sec. V) requires the inverse-decay
schedule ``eta_t = 2 / (mu * (gamma + t))``, provided here as
:class:`InverseDecayLR`.
"""

from __future__ import annotations

import numpy as np

from repro.nn.module import Parameter


class LRSchedule:
    """Maps a global step index to a learning rate."""

    def rate(self, step: int) -> float:
        raise NotImplementedError


class ConstantLR(LRSchedule):
    def __init__(self, lr: float) -> None:
        self.lr = lr

    def rate(self, step: int) -> float:
        return self.lr


class InverseDecayLR(LRSchedule):
    """``eta_t = scale / (gamma + t)`` — the Thm. 1/2 schedule.

    With ``scale = 2 / mu`` and ``gamma = max(8 L / mu, E)`` this is
    exactly the schedule assumed by the convergence analysis.
    """

    def __init__(self, scale: float, gamma: float) -> None:
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        self.scale = scale
        self.gamma = gamma

    def rate(self, step: int) -> float:
        return self.scale / (self.gamma + step)


def _as_schedule(lr: float | LRSchedule) -> LRSchedule:
    if isinstance(lr, LRSchedule):
        return lr
    return ConstantLR(float(lr))


class Optimizer:
    """Base class: owns a parameter list and a step counter.

    ``max_grad_norm`` optionally applies global-norm gradient clipping
    before every update (the standard stabilizer for recurrent models
    and for SCAFFOLD-style corrected gradients).
    """

    def __init__(
        self,
        params: list[Parameter],
        lr: float | LRSchedule,
        max_grad_norm: float | None = None,
    ) -> None:
        self.params = list(params)
        self.schedule = _as_schedule(lr)
        self.step_count = 0
        if max_grad_norm is not None and max_grad_norm <= 0:
            raise ValueError("max_grad_norm must be positive")
        self.max_grad_norm = max_grad_norm

    @property
    def current_lr(self) -> float:
        return self.schedule.rate(self.step_count)

    def _clip_gradients(self) -> None:
        if self.max_grad_norm is None:
            return
        total_sq = sum(float((p.grad**2).sum()) for p in self.params)
        norm = np.sqrt(total_sq)
        if norm > self.max_grad_norm and norm > 0:
            scale = self.max_grad_norm / norm
            for p in self.params:
                p.grad *= scale

    def step(self) -> None:
        """Apply one update from the accumulated gradients."""
        self._clip_gradients()
        lr = self.current_lr
        self._apply(lr)
        self.step_count += 1

    def _apply(self, lr: float) -> None:
        raise NotImplementedError

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(
        self,
        params: list[Parameter],
        lr: float | LRSchedule,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        max_grad_norm: float | None = None,
    ) -> None:
        super().__init__(params, lr, max_grad_norm)
        self.momentum = momentum
        self.weight_decay = weight_decay
        # np.zeros, not zeros_like: pages nothing writes to are never made
        # resident, and without momentum nothing writes to these — a
        # block of clients' worth of them would otherwise count.
        self._velocity = [np.zeros(p.data.shape, p.data.dtype) for p in self.params]

    def _apply(self, lr: float) -> None:
        for p, vel in zip(self.params, self._velocity):
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            if self.momentum:
                vel *= self.momentum
                vel += grad
                grad = vel
            p.data -= lr * grad


class RMSProp(Optimizer):
    """RMSProp as used for the paper's Sent140 LSTM (lr=0.01)."""

    def __init__(
        self,
        params: list[Parameter],
        lr: float | LRSchedule,
        decay: float = 0.99,
        eps: float = 1e-8,
        max_grad_norm: float | None = None,
    ) -> None:
        super().__init__(params, lr, max_grad_norm)
        self.decay = decay
        self.eps = eps
        self._sq_avg = [np.zeros_like(p.data) for p in self.params]

    def _apply(self, lr: float) -> None:
        for p, sq in zip(self.params, self._sq_avg):
            sq *= self.decay
            sq += (1.0 - self.decay) * p.grad**2
            p.data -= lr * p.grad / (np.sqrt(sq) + self.eps)


def make_optimizer(
    name: str, params: list[Parameter], lr: float | LRSchedule
) -> Optimizer:
    """Factory used by experiment configs ('sgd' | 'rmsprop')."""
    table = {"sgd": SGD, "rmsprop": RMSProp}
    key = name.lower()
    if key not in table:
        raise ValueError(f"unknown optimizer {name!r}; choose from {sorted(table)}")
    return table[key](params, lr)
