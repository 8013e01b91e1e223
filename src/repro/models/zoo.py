"""Model factory keyed by name + dataset spec."""

from __future__ import annotations

import numpy as np

from repro.data.dataset import DatasetSpec
from repro.exceptions import ConfigError
from repro.models.cnn import build_cnn
from repro.models.logistic import build_logistic
from repro.models.lstm import build_lstm_classifier
from repro.models.mlp import build_mlp
from repro.models.split import SplitModel


def _build_cnn(spec: DatasetSpec, rng: np.random.Generator, scale: float) -> SplitModel:
    if spec.kind != "image":
        raise ConfigError(f"cnn needs an image dataset, got {spec.kind}")
    channels, height, width = spec.input_shape
    if height != width:
        raise ConfigError("cnn expects square images")
    return build_cnn(channels, height, spec.num_classes, rng, scale=scale)


def _build_lstm(spec: DatasetSpec, rng: np.random.Generator, scale: float) -> SplitModel:
    if spec.kind != "sequence":
        raise ConfigError(f"lstm needs a sequence dataset, got {spec.kind}")
    assert spec.vocab_size is not None
    return build_lstm_classifier(spec.vocab_size, spec.num_classes, rng, scale=scale)


def _build_mlp(spec: DatasetSpec, rng: np.random.Generator, scale: float) -> SplitModel:
    if spec.kind != "image":
        raise ConfigError(f"mlp needs an image dataset, got {spec.kind}")
    hidden = max(16, int(round(64 * scale)))
    feat = max(8, int(round(32 * scale)))
    return build_mlp(
        spec.flat_dim, spec.num_classes, rng, (hidden,), feature_dim=feat,
        sample_ndim=len(spec.input_shape),
    )


def _build_logistic(spec: DatasetSpec, rng: np.random.Generator, scale: float) -> SplitModel:
    if spec.kind != "image":
        raise ConfigError(f"logistic needs an image dataset, got {spec.kind}")
    return build_logistic(
        spec.flat_dim, spec.num_classes, rng, sample_ndim=len(spec.input_shape)
    )


MODEL_BUILDERS = {
    "cnn": _build_cnn,
    "lstm": _build_lstm,
    "mlp": _build_mlp,
    "logistic": _build_logistic,
}


def build_model(
    name: str, spec: DatasetSpec, seed: int = 0, scale: float = 1.0
) -> SplitModel:
    """Build a named model for a dataset spec.

    Args:
        name: 'cnn' | 'lstm' | 'mlp' | 'logistic'; any other name raises
            :class:`~repro.exceptions.ConfigError`.
        spec: dataset description (shapes, classes, vocab).
        seed: weight-init seed — identical seeds give bit-identical
            initial global models, which federated runs require.
        scale: width multiplier (1.0 = paper-size architecture).
    """
    if name not in MODEL_BUILDERS:
        raise ConfigError(f"unknown model {name!r}; choose from {sorted(MODEL_BUILDERS)}")
    rng = np.random.default_rng(seed)
    return MODEL_BUILDERS[name](spec, rng, scale)
