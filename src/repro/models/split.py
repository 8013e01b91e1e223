"""SplitModel: a network split into feature extractor ``phi`` and head.

The paper's distribution regularizer acts on the output of the last
fully connected layer *before* the classifier output — i.e. on the
feature extractor ``phi(x; w~)`` where ``w~`` is every parameter except
the output layer (Sec. III-B).  :class:`SplitModel` makes that split a
first-class object so algorithms can (a) read the feature activations of
a batch, and (b) inject an extra gradient on the features during the
backward pass (the regularizer gradient) in the same pass as the task
loss.
"""

from __future__ import annotations

import numpy as np

from repro.nn.dtype import astype_default
from repro.nn.module import Module


class SplitModel(Module):
    """A model composed of ``features`` (phi) followed by ``head``.

    ``forward`` caches the feature activations; ``backward`` optionally
    accepts ``feature_grad`` — an extra gradient on the cached features —
    which is how the MMD regularizer joins the task-loss backward pass
    without a second forward.  A training loop, which never reads the
    gradient with respect to the input batch, passes ``input_grad=False``
    so the first parametrised layer accumulates its parameter gradients
    only (:meth:`repro.nn.Module.backward_params`).
    """

    leading_axes = True  # of the split itself; phi and the head answer for theirs

    def __init__(self, features: Module, head: Module, feature_dim: int) -> None:
        super().__init__()
        self.features = features
        self.head = head
        self.feature_dim = feature_dim
        self._feat: np.ndarray | None = None

    def _free_buffers(self) -> None:
        self._feat = None

    @property
    def last_features(self) -> np.ndarray:
        """Feature activations of the most recent forward pass."""
        if self._feat is None:
            raise RuntimeError("no forward pass has been run")
        return self._feat

    def forward(self, x: np.ndarray) -> np.ndarray:
        # Cast float inputs to the active dtype policy at the model
        # boundary, so dataset pipelines can keep producing float64.
        x = astype_default(x)
        feat = self.features.forward(x)
        self._feat = feat
        return self.head.forward(feat)

    def backward(
        self,
        grad_out: np.ndarray,
        feature_grad: np.ndarray | None = None,
        input_grad: bool = True,
    ) -> np.ndarray | None:
        grad_feat = self.head.backward(grad_out)
        if feature_grad is not None:
            grad_feat = grad_feat + feature_grad
        if input_grad:
            return self.features.backward(grad_feat)
        self.features.backward_params(grad_feat)
        return None
