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


# Bumped by every structural assignment on any module in the process; a
# memoized topology is current while the epoch it was built at still is.
_topology_epoch = 0

# What a forward pass stores on a layer (activations, None, the mode
# flag) is never structure: those assignments skip the closer look.
_INERT = frozenset({np.ndarray, type(None), bool})


def _structural(value) -> bool:
    """A module, a parameter, or a list/tuple holding one (a list of
    arrays such as ``MaxPool2d._weights``, or a shape, is not)."""
    nodes = (Module, Parameter)
    if isinstance(value, (list, tuple)):
        for item in value:
            if isinstance(item, nodes):
                return True
        return False
    return isinstance(value, nodes)


class Module:
    """Base class for all layers and models.

    Subclasses implement :meth:`forward` (caching anything backward
    needs) and :meth:`backward` (consuming the cache, accumulating
    parameter gradients, and returning the gradient with respect to the
    forward input).

    The tree under a module is discovered from its attributes — any
    attribute that is a :class:`Parameter`, a :class:`Module`, or a
    list/tuple of them, in attribute definition order — once, and kept:
    :meth:`modules` and :meth:`parameters` (the flat-vector layout) read
    the memo, as do ``zero_grad``, ``train``/``eval`` and
    ``free_buffers``.  Assigning such a value to an attribute of *any*
    module (or replacing one, or :meth:`Sequential.append`) drops every
    memo in the process, so an ancestor never goes stale.  Mutating a
    module list in place (``model.layers[0] = ...``, ``.insert``) or
    ``del``-eting a child attribute is not seen and is unsupported:
    reassign the list, assign ``None``.

    ``leading_axes`` declares that every axis in front of the layer's own
    input axes is a batch axis: given ``(K, B, ...)`` inputs — and, for a
    layer with parameters, ``(K, ...)`` parameters and gradients — slice
    ``k`` of every output and gradient is the bytes the layer computes for
    slice ``k`` alone.  A model all of whose modules say so can train a
    block of clients in one pass (:func:`repro.fl.client.local_sgd_steps`).
    """

    leading_axes = False

    def __init__(self) -> None:
        self.training = True

    def __setattr__(self, name: str, value) -> None:
        global _topology_epoch
        old = self.__dict__.get(name)
        if type(value) in _INERT and type(old) in _INERT:
            return object.__setattr__(self, name, value)
        if _structural(value) or _structural(old):
            _topology_epoch += 1
        object.__setattr__(self, name, value)

    def __getstate__(self) -> dict:
        # The memo is a cache: a copy or another process rebuilds its own.
        state = self.__dict__.copy()
        state.pop("_topology", None)
        return state

    # -- topology ----------------------------------------------------------------
    def _walk(self) -> tuple:
        """``(epoch, modules below this one, parameters)``, memoized.  The
        module itself is not in its memo: a model must not be a reference
        cycle that pins its tensors until the collector runs."""
        memo = self.__dict__.get("_topology")
        if memo is None or memo[0] != _topology_epoch:
            below: list[Module] = []
            params: list[Parameter] = []
            for value in vars(self).values():
                for item in value if isinstance(value, (list, tuple)) else (value,):
                    if isinstance(item, Parameter):
                        params.append(item)
                    elif isinstance(item, Module):
                        _, item_below, item_params = item._walk()
                        below += (item, *item_below)
                        params += item_params
            memo = (_topology_epoch, tuple(below), tuple(params))
            self.__dict__["_topology"] = memo  # past __setattr__
        return memo

    def modules(self) -> tuple["Module", ...]:
        """This module and every module below it: depth-first, in
        attribute definition order, self first."""
        return (self, *self._walk()[1])

    # -- parameter management -------------------------------------------------
    def parameters(self) -> list[Parameter]:
        """This module's parameters, sub-modules' included, as a new list
        in discovery order (the order of the flat parameter vector)."""
        return list(self._walk()[2])

    def zero_grad(self) -> None:
        for p in self._walk()[2]:
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
        for module in self.modules():
            module._free_buffers()

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
        # Written past __setattr__: the flag is not structure, and every
        # module is flipped three times per client update.
        for module in self.modules():
            module.__dict__["training"] = training

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

    leading_axes = True  # of the chain itself; each layer answers for its own

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self.layers = list(layers)

    def append(self, layer: Module) -> None:
        self.layers = [*self.layers, layer]  # reassigned, so the memos drop

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
