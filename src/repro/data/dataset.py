"""Dataset containers used throughout the library."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import DataError


@dataclass(frozen=True)
class DatasetSpec:
    """Static description of a dataset, consumed by the model zoo.

    Attributes:
        name: dataset identifier ('synth_mnist', ...).
        kind: 'image' (inputs are (C, H, W) float arrays) or
            'sequence' (inputs are (T,) integer token ids).
        input_shape: per-sample shape.
        num_classes: number of label classes.
        vocab_size: token vocabulary size for sequence datasets.
    """

    name: str
    kind: str
    input_shape: tuple[int, ...]
    num_classes: int
    vocab_size: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("image", "sequence"):
            raise DataError(f"unknown dataset kind {self.kind!r}")
        if self.kind == "sequence" and self.vocab_size is None:
            raise DataError("sequence datasets need vocab_size")

    @property
    def flat_dim(self) -> int:
        """Flattened per-sample input dimension (images only)."""
        return int(np.prod(self.input_shape))


class ArrayDataset:
    """An in-memory (x, y) pair with batching helpers."""

    def __init__(self, x: np.ndarray, y: np.ndarray) -> None:
        x = np.asarray(x)
        y = np.asarray(y, dtype=np.int64)
        if len(x) != len(y):
            raise DataError(f"x has {len(x)} samples but y has {len(y)}")
        self.x = x
        self.y = y

    def __len__(self) -> int:
        return len(self.y)

    def subset(self, indices: np.ndarray) -> "ArrayDataset":
        indices = np.asarray(indices, dtype=np.int64)
        return ArrayDataset(self.x[indices], self.y[indices])

    def split(self, frac: float, rng: np.random.Generator) -> tuple["ArrayDataset", "ArrayDataset"]:
        """Random split into (first frac, remainder)."""
        if not 0.0 < frac < 1.0:
            raise DataError(f"split frac must be in (0, 1), got {frac}")
        order = rng.permutation(len(self))
        cut = int(round(frac * len(self)))
        return self.subset(order[:cut]), self.subset(order[cut:])

    def batches(self, batch_size: int, rng: np.random.Generator | None = None):
        """Yield (x, y) minibatches; shuffles when an rng is given."""
        if batch_size <= 0:
            raise DataError(f"batch_size must be positive, got {batch_size}")
        order = rng.permutation(len(self)) if rng is not None else np.arange(len(self))
        for start in range(0, len(self), batch_size):
            idx = order[start : start + batch_size]
            yield self.x[idx], self.y[idx]

    def sample_batch(self, batch_size: int, rng: np.random.Generator):
        """Draw one random minibatch (with replacement if needed)."""
        replace = batch_size > len(self)
        idx = rng.choice(len(self), size=min(batch_size, len(self)), replace=replace)
        return self.x[idx], self.y[idx]

    def label_counts(self, num_classes: int) -> np.ndarray:
        return np.bincount(self.y, minlength=num_classes)


@dataclass
class FederatedDataset:
    """A dataset already partitioned across clients, plus a global test set."""

    spec: DatasetSpec
    clients: list[ArrayDataset]
    test: ArrayDataset
    client_test: list[ArrayDataset] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.clients:
            raise DataError("FederatedDataset needs at least one client")
        empty = [i for i, c in enumerate(self.clients) if len(c) == 0]
        if empty:
            raise DataError(f"clients {empty} have no samples")

    @property
    def num_clients(self) -> int:
        return len(self.clients)

    @property
    def client_sizes(self) -> np.ndarray:
        return np.array([len(c) for c in self.clients], dtype=np.int64)

    @property
    def weights(self) -> np.ndarray:
        """FedAvg aggregation weights p_k = n_k / n."""
        sizes = self.client_sizes.astype(np.float64)
        return sizes / sizes.sum()

    def total_train_samples(self) -> int:
        return int(self.client_sizes.sum())
