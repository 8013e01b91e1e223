"""Shared test utilities: gradient checking, the serial/parallel
equivalence harness for the client-execution engine, the dense
reference for the per-client state table, the label-skew measures the
partition tests assert on, and the softmax the loss is checked against."""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.models.split import SplitModel
from repro.nn.module import Module
from repro.nn.serialization import get_flat_grads, get_flat_params, set_flat_params


def label_histograms(
    clients: list[ArrayDataset], num_classes: int, normalize: bool = True
) -> np.ndarray:
    """Per-client label distributions, shape (num_clients, num_classes)."""
    hist = np.stack([c.label_counts(num_classes).astype(np.float64) for c in clients])
    if normalize:
        hist /= np.maximum(hist.sum(axis=1, keepdims=True), 1.0)
    return hist


def mean_pairwise_tv_distance(hist: np.ndarray) -> float:
    """Mean total-variation distance between all client label pairs.

    0 = identical label distributions (IID); 1 = disjoint label support
    (extreme non-IID).
    """
    n = hist.shape[0]
    if n < 2:
        return 0.0
    total = 0.0
    count = 0
    for i in range(n):
        diffs = np.abs(hist[i + 1 :] - hist[i]).sum(axis=1) / 2.0
        total += float(diffs.sum())
        count += len(diffs)
    return total / count


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = logits - logits.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def finite_difference_check(
    model: Module,
    objective: Callable[[], float],
    analytic_grad: np.ndarray,
    rng: np.random.Generator,
    num_coords: int = 10,
    eps: float = 1e-6,
    atol: float = 1e-5,
) -> None:
    """Assert analytic gradients match central finite differences.

    ``objective`` must recompute the scalar loss from the model's
    current parameters.  A random subset of coordinates is probed.
    """
    flat = get_flat_params(model)
    coords = rng.choice(flat.size, size=min(num_coords, flat.size), replace=False)
    try:
        for i in coords:
            plus = flat.copy()
            plus[i] += eps
            set_flat_params(model, plus)
            loss_plus = objective()
            minus = flat.copy()
            minus[i] -= eps
            set_flat_params(model, minus)
            loss_minus = objective()
            fd = (loss_plus - loss_minus) / (2.0 * eps)
            assert abs(fd - analytic_grad[i]) < atol, (
                f"coord {i}: finite-diff {fd:.8f} vs analytic {analytic_grad[i]:.8f}"
            )
    finally:
        set_flat_params(model, flat)


def model_gradcheck(
    model: Module,
    loss_closure: Callable[[], tuple[float, np.ndarray]],
    rng: np.random.Generator,
    num_coords: int = 10,
    eps: float = 1e-6,
    atol: float = 1e-5,
) -> None:
    """Gradcheck a model whose closure returns (loss, grad_out) and runs
    forward itself; backward is invoked here.

    ``eps`` is the finite-difference step — float32 models need a much
    larger one (~1e-3) than the float64 default, since a 1e-6 bump
    vanishes in single-precision rounding.
    """

    def objective() -> float:
        loss, _grad = loss_closure()
        return loss

    loss, grad_out = loss_closure()
    model.zero_grad()
    model.backward(grad_out)
    analytic = get_flat_grads(model)
    finite_difference_check(
        model, objective, analytic, rng, num_coords, eps=eps, atol=atol
    )


def split_model_objective_gradcheck(
    model: SplitModel,
    objective_and_grads: Callable[[], tuple[float, np.ndarray, np.ndarray | None]],
    rng: np.random.Generator,
    num_coords: int = 10,
    atol: float = 1e-5,
) -> None:
    """Gradcheck a SplitModel objective that may inject a feature grad.

    ``objective_and_grads`` runs forward and returns
    (total_loss, grad_out, feature_grad_or_None).
    """

    def objective() -> float:
        loss, _g, _f = objective_and_grads()
        return loss

    loss, grad_out, feature_grad = objective_and_grads()
    model.zero_grad()
    model.backward(grad_out, feature_grad=feature_grad)
    analytic = get_flat_grads(model)
    finite_difference_check(model, objective, analytic, rng, num_coords, atol=atol)


# -- serial/parallel equivalence harness -----------------------------------------


def tiny_model_fn(fed, seed: int = 0, hidden: int = 12, feature_dim: int = 6):
    """The smallest useful model factory for equivalence runs."""
    from repro.models import build_mlp

    return lambda: build_mlp(
        fed.spec.flat_dim,
        fed.spec.num_classes,
        np.random.default_rng(seed),
        (hidden,),
        feature_dim=feature_dim,
    )


def run_with_workers(
    algorithm_name: str,
    algorithm_kwargs: dict,
    fed,
    config,
    num_workers: int,
    executor: str = "auto",
    decorate=None,
):
    """Run one federated job with the given worker count.

    ``decorate`` (optional) receives the freshly built algorithm before
    the run — use it to attach compressors / fault models.  Returns
    ``(algorithm, history)``.
    """
    from repro.algorithms import make_algorithm
    from repro.fl.trainer import run_federated

    if executor == "auto" and num_workers > 1:
        # The harness's contract is "run with this worker count":
        # 'auto' resolves to serial on single-core machines, which would
        # silently drop the parallel leg of every equivalence matrix on
        # a 1-CPU box, so force the process pool explicitly.
        executor = "process"
    run_config = config.with_updates(num_workers=num_workers, executor=executor)
    algorithm = make_algorithm(algorithm_name, **algorithm_kwargs)
    if decorate is not None:
        decorate(algorithm)
    history = run_federated(algorithm, fed, tiny_model_fn(fed), run_config)
    return algorithm, history


def assert_equivalent_runs(serial, parallel) -> None:
    """Assert two ``(algorithm, history)`` runs are bit-identical.

    Compares final global parameters exactly, every History record field
    except wall time, and the per-round ledger totals.
    """
    alg_a, hist_a = serial
    alg_b, hist_b = parallel
    np.testing.assert_array_equal(alg_a.global_params, alg_b.global_params)

    assert len(hist_a.records) == len(hist_b.records)
    for rec_a, rec_b in zip(hist_a.records, hist_b.records):
        for field in dataclasses.fields(rec_a):
            if field.name == "wall_time_sec":
                continue  # timing legitimately differs between engines
            assert getattr(rec_a, field.name) == getattr(rec_b, field.name), (
                f"round {rec_a.round_idx}: {field.name} "
                f"{getattr(rec_a, field.name)!r} != {getattr(rec_b, field.name)!r}"
            )

    assert alg_a.ledger.rounds == alg_b.ledger.rounds
    for round_idx in range(alg_a.ledger.rounds):
        assert alg_a.ledger.round_bytes(round_idx) == alg_b.ledger.round_bytes(round_idx)


class DenseDeltaOracle:
    """Reference for :class:`repro.core.delta.DeltaTable`: an ``(N, d)``
    array plus a reported mask.  Every statistic is a ``table[mask]``
    reduction, so rows come out in ascending client-id order by
    construction; a client that never reported holds a zero row."""

    def __init__(self, num_clients: int, dim: int) -> None:
        self.table = np.zeros((num_clients, dim))
        self.reported = np.zeros(num_clients, dtype=bool)

    def update(self, client: int, delta: np.ndarray) -> None:
        self.table[client] = delta
        self.reported[client] = True

    def get(self, client: int) -> np.ndarray:
        return self.table[client].copy()

    def reported_rows_except(self, client: int) -> np.ndarray | None:
        mask = self.reported.copy()
        mask[client] = False
        return self.table[mask] if mask.any() else None

    def mean_of_others(self, client: int) -> np.ndarray:
        others = self.reported_rows_except(client)
        return self.get(client) if others is None else others.mean(axis=0)

    def delta_inconsistency(self) -> float:
        if not self.reported.any():
            return 0.0
        rows = self.table[self.reported]
        return float(np.linalg.norm(rows - rows.mean(axis=0), axis=1).mean())

    def restore(self, segments: dict) -> None:
        """Adopt a sparse snapshot (``delta_ids`` / ``delta_rows``)."""
        self.table[:] = 0.0
        self.table[np.asarray(segments["delta_ids"])] = np.asarray(segments["delta_rows"])
        self.reported[:] = segments["delta_reported"]

    def dense_segments(self) -> dict:
        """The ``delta_table`` form checkpoints were written in before
        the table was sparse."""
        return {"delta_table": self.table.copy(), "delta_reported": self.reported.copy()}
