"""Serial/parallel equivalence matrix for the client-execution engine.

Every registered algorithm runs the same 3-round job twice — once with
``num_workers=1`` (the serial reference) and once with a process pool —
and the results must be bit-identical: final global parameters, every
History field except wall time, and the per-round ledger totals.

The worker count defaults to 4 and can be overridden with the
``REPRO_EQUIV_WORKERS`` environment variable (CI runs the matrix at 2).
"""

from __future__ import annotations

import os
import warnings

import pytest

from repro.algorithms import ALGORITHMS, FedAvg
from repro.exceptions import WireError
from repro.fl.config import FLConfig
from repro.fl.trainer import run_federated
from tests.conftest import make_toy_federation
from tests.helpers import assert_equivalent_runs, run_with_workers, tiny_model_fn

WORKERS = int(os.environ.get("REPRO_EQUIV_WORKERS", "4"))

# (name, constructor kwargs, slow?) — one row per registered algorithm.
MATRIX = [
    ("fedavg", {}, False),
    ("fedavgm", {}, False),
    ("fednova", {}, False),
    ("fedprox", {"mu": 0.1}, False),
    ("moon", {"mu": 0.5}, True),
    ("scaffold", {}, False),
    ("qfedavg", {"q": 1.0}, False),
    ("rfedavg", {"lam": 1e-3}, True),
    ("rfedavg+", {"lam": 1e-3}, False),
    ("rfedavg_exact", {"lam": 1e-3}, True),
]


def _config(**overrides) -> FLConfig:
    base = dict(rounds=3, local_steps=2, batch_size=8, lr=0.1, seed=11)
    base.update(overrides)
    return FLConfig(**base)


@pytest.fixture(scope="module")
def fed():
    return make_toy_federation(similarity=0.0)


def test_matrix_covers_every_registered_algorithm():
    """A new algorithm must be added to the equivalence matrix."""
    assert {name for name, _, _ in MATRIX} == set(ALGORITHMS)


@pytest.mark.parametrize(
    "name,kwargs",
    [
        pytest.param(name, kwargs, id=name, marks=[pytest.mark.slow] if slow else [])
        for name, kwargs, slow in MATRIX
    ],
)
def test_parallel_run_is_bit_identical_to_serial(fed, name, kwargs):
    config = _config()
    serial = run_with_workers(name, kwargs, fed, config, num_workers=1)
    parallel = run_with_workers(name, kwargs, fed, config, num_workers=WORKERS)
    assert parallel[0].executor.name == "process"
    # Degrading to serial would mask a packing regression.
    assert not parallel[0].executor.degraded
    assert_equivalent_runs(serial, parallel)


class _OptedOut(FedAvg):
    name = "fedavg"
    wire_transport_safe = False


def test_unsafe_algorithm_degrades_to_serial_with_one_warning(fed):
    """wire_transport_safe=False is a pool failure like any other: the
    executor degrades once, says so once, and the run is the serial run."""
    config = _config(seed=16)
    serial = run_with_workers("fedavg", {}, fed, config, num_workers=1)
    opted_out = _OptedOut()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        history = run_federated(
            opted_out, fed, tiny_model_fn(fed),
            config.with_updates(num_workers=WORKERS, executor="process"),
        )
    runtime_warnings = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert len(runtime_warnings) == 1
    assert "cannot enumerate worker state" in str(runtime_warnings[0].message)
    assert opted_out.executor.degraded
    assert not opted_out.executor._procs  # no worker was ever forked
    assert_equivalent_runs(serial, (opted_out, history))


@pytest.mark.parametrize("topology", ["flat", "hier:2:2"])
def test_inexpressible_round_state_degrades_to_serial(fed, monkeypatch, topology):
    """Round state the wire format cannot express degrades ``run`` and
    ``run_regions`` alike to in-process serial execution, once."""
    from repro.serve import protocol

    def refuse(state, seq):
        raise WireError("segment 'opaque' has no wire encoding")

    monkeypatch.setattr(protocol, "state_parts", refuse)
    config = _config(seed=17, topology=topology)
    serial = run_with_workers("fedavg", {}, fed, config, num_workers=1)
    with pytest.warns(RuntimeWarning, match="no wire encoding") as caught:
        degraded = run_with_workers("fedavg", {}, fed, config, num_workers=WORKERS)
    assert len([w for w in caught if issubclass(w.category, RuntimeWarning)]) == 1
    assert degraded[0].executor.degraded
    assert_equivalent_runs(serial, degraded)


@pytest.mark.parametrize("name,kwargs", [("fedavg", {}), ("scaffold", {})])
def test_chunked_scheduling_is_bit_identical_to_serial(fed, name, kwargs):
    config = _config(seed=12)
    serial = run_with_workers(name, kwargs, fed, config, num_workers=1)
    chunked = run_with_workers(
        name, kwargs, fed, config.with_updates(serve_max_inflight=2),
        num_workers=WORKERS, executor="process",
    )
    assert chunked[0].executor.max_inflight == 2
    assert_equivalent_runs(serial, chunked)


@pytest.mark.parametrize("name,kwargs", [("fedavg", {}), ("rfedavg+", {"lam": 1e-3})])
def test_chunked_pool_stacks_its_chunk_and_equals_serial(name, kwargs):
    """A worker is the serial engine for the block it holds: equal
    shards behind an MLP train as one stacked block — each client
    reports the block's one share of wall clock — and the run is still
    the serial run."""
    from repro.algorithms import make_algorithm
    from repro.data import make_virtual_federation
    from repro.fl.trainer import run_federated
    from repro.models import build_model

    stackable = make_virtual_federation(
        10, seed=5, similarity=0.3, samples_per_client=12, num_test=32
    ).materialize()
    rounds = []

    from repro.serve.server import ServeExecutor

    class Recording(ServeExecutor):
        def run(self, algorithm, round_idx, client_ids):
            rounds.append(super().run(algorithm, round_idx, client_ids))
            return rounds[-1]

    def run(executor=None):
        algorithm = make_algorithm(name, **kwargs)
        if executor is not None:
            algorithm.with_executor(executor)
        history = run_federated(
            algorithm, stackable,
            lambda: build_model("mlp", stackable.spec, seed=2, scale=0.25),  # takes leading axes
            config,
        )
        return algorithm, history

    config = _config(seed=15)
    serial = run()
    chunked = run(Recording(2, name="process"))
    assert not chunked[0].executor.degraded
    assert_equivalent_runs(serial, chunked)
    assert len(rounds) == config.rounds
    for updates in rounds:  # a block that stacks goes out whole
        assert len({(u.worker, u.train_seconds) for u in updates}) == 1
        assert updates[0].worker != 0


def test_partial_participation_is_bit_identical_to_serial(fed):
    """Client sampling happens in the parent; the engine must preserve
    the sampled order even when rounds select different subsets."""
    config = _config(sample_ratio=0.5, rounds=4, seed=13)
    serial = run_with_workers("fedavg", {}, fed, config, num_workers=1)
    parallel = run_with_workers("fedavg", {}, fed, config, num_workers=WORKERS)
    assert_equivalent_runs(serial, parallel)


def test_more_workers_than_clients_is_bit_identical(fed):
    config = _config(seed=14)
    serial = run_with_workers("fedavg", {}, fed, config, num_workers=1)
    oversized = run_with_workers("fedavg", {}, fed, config, num_workers=16)
    assert_equivalent_runs(serial, oversized)
