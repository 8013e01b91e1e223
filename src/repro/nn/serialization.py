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

from repro.exceptions import CheckpointMismatchError
from repro.nn.dtype import get_default_dtype
from repro.nn.module import Module
from repro.nn.optim import Optimizer


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


def save_params(model: Module, path: str) -> None:
    """Persist parameters to an ``.npz`` file."""
    arrays = {f"p{i}": p.data for i, p in enumerate(model.parameters())}
    np.savez(path, **arrays)


def load_params(model: Module, path: str) -> None:
    """Load parameters saved by :func:`save_params` into ``model``."""
    with np.load(path) as data:
        params = model.parameters()
        if len(data.files) != len(params):
            raise ValueError(
                f"checkpoint has {len(data.files)} tensors, model has {len(params)}"
            )
        for i, p in enumerate(params):
            stored = data[f"p{i}"]
            if stored.shape != p.data.shape:
                raise ValueError(
                    f"tensor {i} shape mismatch: {stored.shape} vs {p.data.shape}"
                )
            p.data[...] = stored


def save_state(path: str, model: Module, optimizer: Optimizer | None = None) -> None:
    """Persist model parameters + optimizer slots + the dtype-policy tag.

    Unlike :func:`save_params`, the resulting ``.npz`` is self-describing
    enough to resume *training*, not just inference: SGD momentum /
    RMSProp square averages / Adam moment buffers and the step counter
    round-trip exactly, and the active dtype policy is recorded so a
    load under a different policy fails loudly instead of silently
    casting (a float32 resume of a float64 run would diverge bit-wise
    while looking plausible).
    """
    arrays: dict[str, np.ndarray] = {
        f"p{i}": p.data for i, p in enumerate(model.parameters())
    }
    arrays["meta_dtype"] = np.array(np.dtype(get_default_dtype()).name)
    if optimizer is not None:
        state = optimizer.state_dict()
        arrays["opt_class"] = np.array(type(optimizer).__name__)
        arrays["opt_step_count"] = np.array(state["step_count"], dtype=np.int64)
        for slot, buffers in state["slots"].items():
            for i, buf in enumerate(buffers):
                arrays[f"opt_{slot}_{i}"] = buf
    np.savez(path, **arrays)


def load_state(path: str, model: Module, optimizer: Optimizer | None = None) -> None:
    """Load a :func:`save_state` file into ``model`` (and ``optimizer``).

    Raises :class:`~repro.exceptions.CheckpointMismatchError` when the
    file was written under a different dtype policy or for a different
    optimizer class — no silent casting, no partially applied state.
    """
    with np.load(path) as data:
        if "meta_dtype" not in data.files:
            raise ValueError(
                f"{path} is not a save_state() file (no dtype tag); "
                "use load_params() for plain parameter files"
            )
        stored_dtype = str(data["meta_dtype"])
        active_dtype = np.dtype(get_default_dtype()).name
        if stored_dtype != active_dtype:
            raise CheckpointMismatchError(
                f"state file {path} was saved under the {stored_dtype} dtype "
                f"policy but the active policy is {active_dtype}; refusing to "
                f"cast silently — switch policies with "
                f"set_default_dtype({stored_dtype!r}) or re-save the state"
            )
        params = model.parameters()
        for i, p in enumerate(params):
            key = f"p{i}"
            if key not in data.files:
                raise ValueError(
                    f"state file has fewer tensors than the model ({i} < {len(params)})"
                )
            stored = data[key]
            if stored.shape != p.data.shape:
                raise ValueError(
                    f"tensor {i} shape mismatch: {stored.shape} vs {p.data.shape}"
                )
        if optimizer is not None:
            if "opt_class" not in data.files:
                raise ValueError(f"state file {path} carries no optimizer state")
            stored_class = str(data["opt_class"])
            if stored_class != type(optimizer).__name__:
                raise CheckpointMismatchError(
                    f"state file {path} holds {stored_class} state, cannot load "
                    f"into {type(optimizer).__name__}"
                )
            slots = {
                slot.lstrip("_"): [
                    data[f"opt_{slot.lstrip('_')}_{i}"]
                    for i in range(len(getattr(optimizer, slot)))
                ]
                for slot in optimizer._slots
            }
            optimizer.load_state_dict(
                {"step_count": int(data["opt_step_count"]), "slots": slots}
            )
        # Model params written last: every check above passed, so a
        # raised error leaves model and optimizer untouched.
        for i, p in enumerate(params):
            p.data[...] = data[f"p{i}"]
