"""Shared fixtures + the serve-run harness for the serving subsystem."""

from __future__ import annotations

import warnings

import pytest

from tests.conftest import make_toy_federation
from tests.helpers import WORKERS, tiny_model_fn


@pytest.fixture(scope="module")
def fed():
    return make_toy_federation(similarity=0.0)


def run_serve(
    algorithm_name: str,
    algorithm_kwargs: dict,
    fed,
    config,
    num_workers: int = WORKERS,
    decorate=None,
    tracer=None,
    allow_degrade: bool = False,
    **executor_kwargs,
):
    """Run one federated job through the socket serving engine.

    ``executor_kwargs`` (``timeout``, ``queue_bytes``, ...) build the
    :class:`~repro.serve.server.ServeExecutor` with those bounds and
    attach it; without them the config builds it.  Degradation to
    in-process execution raises (via warnings-as-errors) unless
    ``allow_degrade`` is set — a silently-degraded run would make every
    equivalence assertion vacuous.  Returns ``(algorithm, history)``.
    """
    from repro.algorithms import make_algorithm
    from repro.fl.trainer import run_federated
    from repro.serve.server import ServeExecutor

    run_config = config.with_updates(execution="serve", num_workers=num_workers)
    algorithm = make_algorithm(algorithm_name, **algorithm_kwargs)
    if executor_kwargs:
        algorithm.with_executor(ServeExecutor(num_workers, **executor_kwargs))
    if decorate is not None:
        decorate(algorithm)
    with warnings.catch_warnings():
        if not allow_degrade:
            warnings.simplefilter("error", RuntimeWarning)
        history = run_federated(
            algorithm, fed, tiny_model_fn(fed), run_config, tracer=tracer
        )
    assert algorithm.executor.name == "serve"
    if not allow_degrade:
        assert not algorithm.executor.degraded
    return algorithm, history
