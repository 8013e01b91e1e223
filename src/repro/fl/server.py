"""Server-side aggregation primitives.

A round's reduction is a *fold*: each update is added as it is
committed, in selection order, and the running sum is all the server
holds of it.  The folds here repeat the floating-point operations of the
list reductions they replace, in the same order, so a folded round is
the bytes of one that held every update until the end:
:class:`WeightedMean` is :func:`weighted_average`, :class:`RowSum` is
``np.sum(rows, axis=0)`` (numpy adds the rows of a stacked array to its
identity one after another, from row 0).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ProtocolError


class WeightedMean:
    """``sum_k p_k * v_k`` with ``p`` normalized to 1, folded: ``0 + p_0
    v_0 + p_1 v_1 + ...`` in float64, cast back to the vectors' dtype.

    Args:
        weights: one non-negative weight a vector to come, typically
            client sample counts; normalized here, before the first add.
    """

    def __init__(self, weights: np.ndarray) -> None:
        weights = np.asarray(weights, dtype=np.float64)
        if (weights < 0).any():
            raise ProtocolError("aggregation weights must be non-negative")
        total = weights.sum()
        if len(weights) and total <= 0:
            raise ProtocolError("aggregation weights sum to zero")
        self.norm = weights / total if len(weights) else weights
        self.count = 0
        self._sum: np.ndarray | None = None
        self._dtype = None

    def add(self, vec: np.ndarray) -> None:
        if self.count == len(self.norm):
            raise ProtocolError(f"more vectors than the {len(self.norm)} weights")
        if self._sum is None:
            # Accumulate in float64 regardless of the client dtype (a
            # float32 running sum would lose low-order bits client by
            # client); result() casts back, a no-op for float64 inputs.
            self._sum = np.zeros(vec.shape, dtype=np.float64)
            self._dtype = vec.dtype
        elif vec.shape != self._sum.shape:
            raise ProtocolError(f"vector shape {vec.shape} != {self._sum.shape}")
        self._sum += self.norm[self.count] * vec
        self._dtype = np.result_type(self._dtype, vec.dtype)
        self.count += 1

    def result(self) -> np.ndarray:
        if self._sum is None:
            raise ProtocolError("cannot aggregate an empty update set")
        if self.count != len(self.norm):
            raise ProtocolError(f"{self.count} vectors but {len(self.norm)} weights")
        return self._sum.astype(self._dtype, copy=False)


class RowSum:
    """``np.sum(rows, axis=0)`` folded: ``0 + row_0 + row_1 + ...`` in
    the rows' dtype (numpy's reduction starts from the identity, which
    turns a ``-0.0`` in every row into ``0.0``).  :attr:`count` rows so
    far; ``total / count`` is ``np.mean(rows, axis=0)``."""

    def __init__(self) -> None:
        self.count = 0
        self.total: np.ndarray | None = None

    def add(self, row: np.ndarray) -> None:
        if self.total is None:
            self.total = np.zeros(row.shape, dtype=row.dtype)
        self.total += row
        self.count += 1


def weighted_average(vectors: list[np.ndarray], weights: np.ndarray) -> np.ndarray:
    """FedAvg aggregation: sum_k p_k * v_k with p normalized to 1,
    accumulated ``0 + p_0 v_0 + p_1 v_1 + ...`` in list order (a
    :class:`WeightedMean` over a list; a round folds the same sum one
    update at a time).

    Args:
        vectors: per-client flat parameter vectors (same length).
        weights: non-negative weights, typically client sample counts;
            normalized internally.
    """
    mean = WeightedMean(weights)
    for vec in vectors:
        mean.add(vec)
    return mean.result()
