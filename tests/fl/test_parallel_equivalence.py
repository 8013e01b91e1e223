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

import pytest

from repro.algorithms import ALGORITHMS
from repro.fl.config import FLConfig
from tests.conftest import make_toy_federation
from tests.helpers import assert_equivalent_runs, run_with_workers

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
    assert not parallel[0].executor.degraded
    # The wire transport must have stayed active — a silent fallback to
    # pickling flips this attribute and would mask a packing regression.
    assert parallel[0].executor.transport == "wire"
    assert_equivalent_runs(serial, parallel)


@pytest.mark.parametrize("name,kwargs", [
    ("fedavg", {}),
    ("scaffold", {}),
    ("rfedavg+", {"lam": 1e-3}),
])
def test_pickle_transport_is_bit_identical_to_wire(fed, name, kwargs):
    """The two transports must be interchangeable, bit for bit."""
    config = _config(seed=15)
    wire_run = run_with_workers(name, kwargs, fed, config, num_workers=WORKERS)
    pickle_run = run_with_workers(
        name, kwargs, fed, config, num_workers=WORKERS, transport="pickle"
    )
    assert wire_run[0].executor.transport == "wire"
    assert pickle_run[0].executor.transport == "pickle"
    assert_equivalent_runs(wire_run, pickle_run)


def test_unsafe_algorithm_uses_pickle_engine(fed):
    """wire_transport_safe=False must route around the persistent pool."""
    from repro.algorithms import FedAvg
    from repro.fl.trainer import run_federated
    from tests.helpers import tiny_model_fn

    class _OptedOut(FedAvg):
        name = "fedavg"
        wire_transport_safe = False

    config = _config(seed=16, num_workers=WORKERS, executor="process")
    serial = run_with_workers("fedavg", {}, fed, _config(seed=16), num_workers=1)
    opted_out = _OptedOut()
    history = run_federated(opted_out, fed, tiny_model_fn(fed), config)
    assert not opted_out.executor.degraded
    assert_equivalent_runs(serial, (opted_out, history))


@pytest.mark.parametrize("name,kwargs", [("fedavg", {}), ("scaffold", {})])
def test_chunked_scheduling_is_bit_identical_to_serial(fed, name, kwargs):
    config = _config(seed=12)
    serial = run_with_workers(name, kwargs, fed, config, num_workers=1)
    chunked = run_with_workers(
        name, kwargs, fed, config, num_workers=WORKERS, executor="chunked"
    )
    assert chunked[0].executor.chunked
    assert_equivalent_runs(serial, chunked)


@pytest.mark.parametrize(
    "name,kwargs,transport",
    [("fedavg", {}, "wire"), ("fedavg", {}, "pickle"), ("rfedavg+", {"lam": 1e-3}, "wire")],
)
def test_chunked_pool_stacks_its_chunk_and_equals_serial(name, kwargs, transport):
    """A pool worker is the serial engine for the slots it holds: equal
    shards behind an MLP train as one stacked block per chunk — each
    client reports the chunk's one share of wall clock — and the run is
    still the serial run."""
    from repro.algorithms import make_algorithm
    from repro.data import make_virtual_federation
    from repro.fl.parallel import ParallelExecutor
    from repro.fl.trainer import run_federated
    from repro.models import build_model

    stackable = make_virtual_federation(
        10, seed=5, similarity=0.3, samples_per_client=12, num_test=32
    ).materialize()
    rounds = []

    class Recording(ParallelExecutor):
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
    chunked = run(Recording(2, chunked=True, transport=transport))
    assert not chunked[0].executor.degraded
    assert_equivalent_runs(serial, chunked)
    assert len(rounds) == config.rounds
    for updates in rounds:
        for chunk in (updates[:5], updates[5:]):
            assert len({(u.worker, u.train_seconds) for u in chunk}) == 1
            assert chunk[0].worker != 0


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
