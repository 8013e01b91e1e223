"""Base classes for layers: :class:`Parameter`, :class:`Module`, :class:`Sequential`."""

from __future__ import annotations

import numpy as np

from repro.nn.dtype import get_default_dtype


class Parameter:
    """A trainable tensor with an accumulated gradient.

    ``data`` holds the current value; ``grad`` accumulates gradient
    contributions across :meth:`Module.backward` calls until
    :meth:`zero_grad` resets it.  Both are numpy arrays of the same
    shape in the dtype-policy dtype active at construction (float64 by
    default — see :mod:`repro.nn.dtype`); the dtype then sticks with
    the parameter for its lifetime.
    """

    def __init__(self, data: np.ndarray, name: str = "") -> None:
        self.data = np.asarray(data, dtype=get_default_dtype())
        self.grad = np.zeros_like(self.data)
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return int(self.data.size)

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter(name={self.name!r}, shape={self.data.shape})"


class Module:
    """Base class for all layers and models.

    Subclasses implement :meth:`forward` (caching anything backward
    needs) and :meth:`backward` (consuming the cache, accumulating
    parameter gradients, and returning the gradient with respect to the
    forward input).
    """

    def __init__(self) -> None:
        self.training = True

    # -- parameter management -------------------------------------------------
    def parameters(self) -> list[Parameter]:
        """Return this module's parameters, recursing into sub-modules.

        Discovery is attribute-based: any attribute that is a
        :class:`Parameter`, a :class:`Module`, or a list of modules is
        included, in attribute definition order.
        """
        params: list[Parameter] = []
        for value in vars(self).values():
            if isinstance(value, Parameter):
                params.append(value)
            elif isinstance(value, Module):
                params.extend(value.parameters())
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        params.extend(item.parameters())
                    elif isinstance(item, Parameter):
                        params.append(item)
        return params

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # -- cache management ------------------------------------------------------
    def free_buffers(self) -> None:
        """Drop cached forward activations, recursively.

        Every layer caches whatever its ``backward`` needs during
        ``forward`` (im2col columns, gate activations, pooling masks).
        Between training steps those caches are dead weight — a full
        round of clients would otherwise pin one batch of activations
        per workspace model.  Calling this after the optimizer step
        releases them; the next ``forward`` rebuilds everything, and a
        ``backward`` without a fresh ``forward`` raises exactly as it
        does on a newly constructed module.
        """
        self._free_buffers()
        for value in vars(self).values():
            if isinstance(value, Module):
                value.free_buffers()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        item.free_buffers()

    def _free_buffers(self) -> None:
        """Hook: subclasses drop their own cached tensors here."""

    # -- train / eval mode -----------------------------------------------------
    def train(self) -> "Module":
        """Put the module (recursively) in training mode."""
        self._set_mode(True)
        return self

    def eval(self) -> "Module":
        """Put the module (recursively) in evaluation mode."""
        self._set_mode(False)
        return self

    def _set_mode(self, training: bool) -> None:
        self.training = training
        for value in vars(self).values():
            if isinstance(value, Module):
                value._set_mode(training)
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        item._set_mode(training)

    # -- computation -----------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward_params(self, grad_out: np.ndarray) -> None:
        """Accumulate parameter gradients without returning the input gradient.

        For the first parametrised layer of a network the gradient with
        respect to the input is never read.  The default runs
        :meth:`backward` and discards it; a layer whose input gradient is
        expensive overrides this to skip that work.  Parameter gradients
        are the same bits either way.
        """
        self.backward(grad_out)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)


class Sequential(Module):
    """A chain of modules applied in order."""

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self.layers = list(layers)

    def append(self, layer: Module) -> None:
        self.layers.append(layer)

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad_out = layer.backward(grad_out)
        return grad_out

    def backward_params(self, grad_out: np.ndarray) -> None:
        # Backpropagate down to the first layer that has parameters and
        # stop there: the parameter-free layers before it only reshape a
        # gradient nobody reads.
        first = next(
            (i for i, layer in enumerate(self.layers) if layer.parameters()), None
        )
        if first is None:
            return
        for layer in reversed(self.layers[first + 1 :]):
            grad_out = layer.backward(grad_out)
        self.layers[first].backward_params(grad_out)

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, index: int) -> Module:
        return self.layers[index]
