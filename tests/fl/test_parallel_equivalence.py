"""The worker engine where it is more than a placement: round state it
cannot express degrades it to serial, and a block that stacks goes out
whole.  Either way the run is the serial run.  (Worker runs == serial
for every algorithm are rows of ``tests/test_engine_identity.py``.)
"""

from __future__ import annotations

import pytest

from repro.exceptions import WireError
from repro.fl.config import FLConfig
from tests.conftest import make_toy_federation
from tests.helpers import WORKERS, assert_equivalent_runs, run_with_workers


def _config(**overrides) -> FLConfig:
    base = dict(rounds=3, local_steps=2, batch_size=8, lr=0.1, seed=11)
    base.update(overrides)
    return FLConfig(**base)


@pytest.fixture(scope="module")
def fed():
    return make_toy_federation(similarity=0.0)


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
        def stream(self, algorithm, round_idx, regions):
            rounds.append([])
            for group, update in super().stream(algorithm, round_idx, regions):
                rounds[-1].append(update)
                yield group, update

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
