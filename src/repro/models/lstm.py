"""The paper's Sent140 model: 2-layer LSTM + FC feature layer.

"2-layer LSTM + 1-layer FC (dimension of output vector is 256) with
pre-trained word vectors" — the MMD regularizer is computed on the
256-dimensional FC output, so the feature extractor here is
Embedding -> LSTM(2) -> last hidden -> Linear(256) -> ReLU and the head
is the final classifier layer.
"""

from __future__ import annotations

import numpy as np

from repro import nn
from repro.models.split import SplitModel


def build_lstm_classifier(
    vocab_size: int,
    num_classes: int,
    rng: np.random.Generator,
    embed_dim: int = 50,
    hidden_dim: int = 256,
    feature_dim: int = 256,
    num_layers: int = 2,
    pretrained_embeddings: np.ndarray | None = None,
    freeze_embeddings: bool = False,
    scale: float = 1.0,
) -> SplitModel:
    """Build the LSTM sentiment classifier as a :class:`SplitModel`.

    ``scale`` shrinks ``embed_dim``/``hidden_dim``/``feature_dim``
    proportionally (min 8) for CPU-budget benchmark runs.
    """
    if scale != 1.0:
        embed_dim = max(8, int(round(embed_dim * scale)))
        hidden_dim = max(8, int(round(hidden_dim * scale)))
        feature_dim = max(8, int(round(feature_dim * scale)))
    embedding = nn.Embedding(
        vocab_size,
        embed_dim,
        rng=rng,
        trainable=not freeze_embeddings,
        pretrained=pretrained_embeddings,
    )
    features = nn.Sequential(
        embedding,
        nn.LSTM(embed_dim, hidden_dim, num_layers=num_layers, rng=rng),
        nn.LastTimestep(),
        nn.Linear(hidden_dim, feature_dim, rng=rng),
        nn.ReLU(),
    )
    head = nn.Linear(feature_dim, num_classes, rng=rng)
    return SplitModel(features, head, feature_dim=feature_dim)
