"""Zero-latency async == sync equivalence matrix.

With instant runtimes and a full-cohort buffer, the event-driven async
engine must reproduce the synchronous barrier loop **bit-identically**
for every registered algorithm: every dispatched update arrives fresh
and in selection order, so the buffered flush is the synchronous round
verbatim.  This is the contract that makes async a scheduler swap
rather than a numerical change.

Mirrors the serial/parallel matrix in ``test_parallel_equivalence.py``
(same config, same slow marks); one cross-cutting case also runs the
async engine on top of the process executor.
"""

from __future__ import annotations

import os

import pytest

from repro.algorithms import ALGORITHMS
from repro.fl.config import FLConfig
from tests.conftest import make_toy_federation
from tests.helpers import assert_equivalent_runs, run_with_workers

# A worker-engine leg that degrades to serial warns, and must fail here
# rather than pass as the serial engine.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

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
    """A new algorithm must be added to the async equivalence matrix."""
    assert {name for name, _, _ in MATRIX} == set(ALGORITHMS)


@pytest.mark.parametrize(
    "name,kwargs",
    [
        pytest.param(name, kwargs, id=name, marks=[pytest.mark.slow] if slow else [])
        for name, kwargs, slow in MATRIX
    ],
)
def test_zero_latency_async_is_bit_identical(fed, name, kwargs):
    sync = run_with_workers(name, kwargs, fed, _config(), num_workers=1)
    asynchronous = run_with_workers(
        name, kwargs, fed, _config(execution="async"), num_workers=1
    )
    assert_equivalent_runs(sync, asynchronous)
    async_history = asynchronous[1].async_history
    assert async_history.max_staleness() == 0
    assert async_history.discarded_updates == 0


def test_zero_latency_async_with_partial_participation(fed):
    """Cohort sampling consumes the selection RNG identically."""
    config = _config(sample_ratio=0.5, rounds=4)
    sync = run_with_workers("fedavg", {}, fed, config, num_workers=1)
    asynchronous = run_with_workers(
        "fedavg", {}, fed, config.with_updates(execution="async"), num_workers=1
    )
    assert_equivalent_runs(sync, asynchronous)


def test_zero_latency_async_under_parallel_wire(fed):
    """The async engine composes with the process executor + packed
    wire transport without breaking the identity."""
    sync = run_with_workers("scaffold", {}, fed, _config(), num_workers=1)
    asynchronous = run_with_workers(
        "scaffold", {}, fed, _config(execution="async"),
        num_workers=WORKERS, executor="process",
    )
    assert_equivalent_runs(sync, asynchronous)
