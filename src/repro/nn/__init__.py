"""A from-scratch neural-network library on numpy.

This package is the autograd substrate of the reproduction: the paper's
implementation uses PyTorch, which is unavailable offline, so every layer
here implements an exact manual ``forward``/``backward`` pair.  Gradients
are verified against central finite differences in the test suite.

Design notes
------------
* Layers subclass :class:`~repro.nn.module.Module` and cache whatever the
  backward pass needs during ``forward``.
* ``backward`` *accumulates* into ``Parameter.grad`` (like PyTorch), so a
  single batch may receive gradient contributions from several objective
  terms (e.g. cross-entropy loss + the MMD distribution regularizer).
* Arithmetic follows a process-global dtype policy (:mod:`repro.nn.dtype`).
  The default is float64 — numerically trustworthy gradient checks — while
  ``set_default_dtype("float32")`` (or the ``default_dtype`` context
  manager) switches training to float32 end to end for speed.
"""

from repro.nn.dtype import (
    default_dtype,
    get_default_dtype,
    set_default_dtype,
)
from repro.nn.module import Module, Parameter, Sequential
from repro.nn.linear import Linear
from repro.nn.conv import Conv2d
from repro.nn.pooling import MaxPool2d
from repro.nn.activations import ReLU, Tanh, Sigmoid, LeakyReLU
from repro.nn.dropout import Dropout
from repro.nn.embedding import Embedding
from repro.nn.recurrent import LSTM, LSTMCell, LastTimestep
from repro.nn.reshape import Flatten
from repro.nn.losses import (
    Loss,
    SoftmaxCrossEntropy,
    MeanSquaredError,
)
from repro.nn.optim import (
    Optimizer,
    SGD,
    RMSProp,
    ConstantLR,
    InverseDecayLR,
)
from repro.nn.serialization import (
    get_flat_params,
    set_flat_params,
    get_flat_grads,
    num_params,
)
from repro.nn import functional

__all__ = [
    "default_dtype",
    "get_default_dtype",
    "set_default_dtype",
    "Module",
    "Parameter",
    "Sequential",
    "Linear",
    "Conv2d",
    "MaxPool2d",
    "ReLU",
    "Tanh",
    "Sigmoid",
    "LeakyReLU",
    "Dropout",
    "Embedding",
    "LSTM",
    "LSTMCell",
    "LastTimestep",
    "Flatten",
    "Loss",
    "SoftmaxCrossEntropy",
    "MeanSquaredError",
    "Optimizer",
    "SGD",
    "RMSProp",
    "ConstantLR",
    "InverseDecayLR",
    "get_flat_params",
    "set_flat_params",
    "get_flat_grads",
    "num_params",
    "functional",
]
