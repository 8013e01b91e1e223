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


class StepLR(LRSchedule):
    """Multiply the base rate by ``decay`` every ``every`` steps."""

    def __init__(self, lr: float, every: int, decay: float = 0.5) -> None:
        self.lr = lr
        self.every = every
        self.decay = decay

    def rate(self, step: int) -> float:
        return self.lr * (self.decay ** (step // self.every))


def _as_schedule(lr: float | LRSchedule) -> LRSchedule:
    if isinstance(lr, LRSchedule):
        return lr
    return ConstantLR(float(lr))


class Optimizer:
    """Base class: owns a parameter list and a step counter.

    ``max_grad_norm`` optionally applies global-norm gradient clipping
    before every update (the standard stabilizer for recurrent models
    and for SCAFFOLD-style corrected gradients).

    Subclasses declare their per-parameter slot buffers in ``_slots``
    (attribute names holding one array per parameter), which makes
    :meth:`state_dict` / :meth:`load_state_dict` work for every
    optimizer here without per-class serialization code.
    """

    _slots: tuple[str, ...] = ()

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

    # -- checkpointing -----------------------------------------------------------
    def state_dict(self) -> dict:
        """Step counter plus every per-parameter slot buffer (copies)."""
        return {
            "step_count": self.step_count,
            "slots": {
                name.lstrip("_"): [np.array(a, copy=True) for a in getattr(self, name)]
                for name in self._slots
            },
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot into this optimizer.

        The optimizer must wrap the same parameter list the snapshot was
        taken from — slot names, counts, and per-slot shapes are all
        checked, and values are copied into the existing buffers.
        """
        expected = {name.lstrip("_") for name in self._slots}
        stored = set(state.get("slots", {}))
        if stored != expected:
            raise ValueError(
                f"optimizer slot mismatch: snapshot has {sorted(stored)}, "
                f"{type(self).__name__} expects {sorted(expected)}"
            )
        # Validate fully before mutating, so a bad snapshot cannot leave
        # the optimizer half-loaded.
        checked: list[tuple[list[np.ndarray], list[np.ndarray]]] = []
        for name in self._slots:
            buffers = getattr(self, name)
            arrays = [np.asarray(a) for a in state["slots"][name.lstrip("_")]]
            if len(arrays) != len(buffers):
                raise ValueError(
                    f"slot {name.lstrip('_')!r} has {len(arrays)} arrays, "
                    f"optimizer has {len(buffers)} parameters"
                )
            for i, (buf, arr) in enumerate(zip(buffers, arrays)):
                if arr.shape != buf.shape:
                    raise ValueError(
                        f"slot {name.lstrip('_')!r}[{i}] shape mismatch: "
                        f"{arr.shape} vs {buf.shape}"
                    )
            checked.append((buffers, arrays))
        for buffers, arrays in checked:
            for buf, arr in zip(buffers, arrays):
                buf[...] = arr
        self.step_count = int(state["step_count"])


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    _slots = ("_velocity",)

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

    _slots = ("_sq_avg",)

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


class Adam(Optimizer):
    _slots = ("_m", "_v")

    def __init__(
        self,
        params: list[Parameter],
        lr: float | LRSchedule,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        max_grad_norm: float | None = None,
    ) -> None:
        super().__init__(params, lr, max_grad_norm)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def _apply(self, lr: float) -> None:
        t = self.step_count + 1
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        for p, m, v in zip(self.params, self._m, self._v):
            m *= self.beta1
            m += (1.0 - self.beta1) * p.grad
            v *= self.beta2
            v += (1.0 - self.beta2) * p.grad**2
            p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def make_optimizer(
    name: str, params: list[Parameter], lr: float | LRSchedule
) -> Optimizer:
    """Factory used by experiment configs ('sgd' | 'rmsprop' | 'adam')."""
    table = {"sgd": SGD, "rmsprop": RMSProp, "adam": Adam}
    key = name.lower()
    if key not in table:
        raise ValueError(f"unknown optimizer {name!r}; choose from {sorted(table)}")
    return table[key](params, lr)
