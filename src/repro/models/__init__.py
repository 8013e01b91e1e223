"""Model zoo: the paper's CNN and LSTM plus fast MLP / convex variants.

Every model is a :class:`~repro.models.split.SplitModel` — a feature
extractor ``phi`` (all layers except the output layer, exactly the
paper's definition of the mapping whose mean embedding forms ``delta``)
followed by a classification ``head``.
"""

from repro.models.split import SplitModel
from repro.models.cnn import build_cnn
from repro.models.lstm import build_lstm_classifier
from repro.models.mlp import build_mlp
from repro.models.logistic import build_logistic
from repro.models.zoo import build_model, MODEL_BUILDERS

__all__ = [
    "SplitModel",
    "build_cnn",
    "build_lstm_classifier",
    "build_mlp",
    "build_logistic",
    "build_model",
    "MODEL_BUILDERS",
]
