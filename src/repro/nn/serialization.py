"""Flat-vector (de)serialization of model parameters.

Federated payloads cross the client-server boundary as single flat
vectors; these helpers define the canonical layout (parameter discovery
order, row-major flattening) used by every algorithm and by the
communication accountant.  Vectors carry the parameters' own dtype —
under the default float64 policy this is exactly the historical
behaviour, while a float32 policy halves the payload.  Writing a vector
back into a model casts to each parameter's dtype.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.nn.dtype import get_default_dtype
from repro.nn.module import Module


def num_params(model: Module) -> int:
    """Total number of scalar parameters in ``model``."""
    return sum(p.size for p in model.parameters())


def get_flat_params(model: Module) -> np.ndarray:
    """Concatenate all parameters into one flat vector (a copy)."""
    parts = [p.data.reshape(-1) for p in model.parameters()]
    if not parts:
        return np.zeros(0, dtype=get_default_dtype())
    return np.concatenate(parts)


def set_flat_params(model: Module, flat: np.ndarray) -> None:
    """Write ``flat`` back into the model, preserving shapes and dtypes."""
    flat = np.asarray(flat)
    expected = num_params(model)
    if flat.size != expected:
        raise ValueError(f"flat vector has {flat.size} entries, model needs {expected}")
    offset = 0
    for p in model.parameters():
        p.data[...] = flat[offset : offset + p.size].reshape(p.shape)
        offset += p.size


@contextmanager
def stacked_params(model: Module, flat: np.ndarray, copies: int):
    """``copies`` models in one: yields a ``(copies, P)`` arena, every row
    ``flat`` in the parameters' dtype, and for the length of the block
    each parameter's ``data`` is its ``(copies, *shape)`` view into the
    arena and ``grad`` a zeroed buffer of that shape.

    A forward, backward and optimizer step through layers whose leading
    axes are batch axes then trains row ``k`` as model ``k``, and the rows
    are the flat vectors :func:`get_flat_params` would return — nothing
    is unstacked.  On exit the parameters have their own tensors back,
    untouched by the block.
    """
    params = model.parameters()
    arena = np.empty((copies, num_params(model)), dtype=params[0].data.dtype)
    arena[...] = flat
    own = [(p.data, p.grad) for p in params]
    offset = 0
    try:
        for p, (data, _grad) in zip(params, own):
            p.data = arena[:, offset : offset + data.size].reshape(copies, *data.shape)
            p.grad = np.zeros(p.data.shape, dtype=arena.dtype)
            offset += data.size
        yield arena
    finally:
        for p, (data, grad) in zip(params, own):
            p.data, p.grad = data, grad


def get_flat_grads(model: Module) -> np.ndarray:
    """Concatenate all accumulated gradients into one vector (a copy)."""
    parts = [p.grad.reshape(-1) for p in model.parameters()]
    if not parts:
        return np.zeros(0, dtype=get_default_dtype())
    return np.concatenate(parts)


def add_flat_to_grads(model: Module, flat: np.ndarray) -> None:
    """Add a flat vector into the model's gradient buffers.

    Used by SCAFFOLD to inject control-variate corrections and by
    FedProx to add the proximal-term gradient before the optimizer step.
    """
    flat = np.asarray(flat)
    expected = num_params(model)
    if flat.size != expected:
        raise ValueError(f"flat vector has {flat.size} entries, model needs {expected}")
    offset = 0
    for p in model.parameters():
        p.grad += flat[offset : offset + p.size].reshape(p.shape)
        offset += p.size
