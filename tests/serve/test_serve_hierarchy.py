"""A hierarchical round on the worker engine: every region in one wave.

``ServeExecutor.run_regions`` sends all regions' clients through one
served round — one state frame for the union cohort, each ``task`` frame
carrying its own region's model, blocks that never straddle two
regions.  None of that may show in the numbers: served ``hier:R:P`` runs
equal the serial hierarchical run bit for bit (for every algorithm, with
one served round a round: the ``hier:2:2`` rows of
``tests/test_engine_identity.py``).
"""

from __future__ import annotations

import time
import warnings

from repro.algorithms import FedAvg, make_algorithm
from repro.data import make_virtual_federation
from repro.fl.config import FLConfig
from repro.fl.trainer import run_federated
from repro.models import build_model
from repro.obs import Tracer
from tests.conftest import make_toy_federation
from tests.fl.test_cohort_stacking import _counters
from tests.helpers import assert_equivalent_runs, tiny_model_fn

TOPOLOGY = "hier:2:2"


def _config(**overrides) -> FLConfig:
    base = dict(rounds=4, local_steps=2, batch_size=8, lr=0.1, seed=71, topology=TOPOLOGY)
    base.update(overrides)
    return FLConfig(**base)


def _served(algorithm, fed, model_fn, config, tracer):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # a degraded run proves nothing
        history = run_federated(
            algorithm, fed, model_fn,
            config.with_updates(execution="serve", num_workers=2), tracer=tracer,
        )
    assert algorithm.executor.name == "serve" and not algorithm.executor.degraded
    return algorithm, history


def test_served_hierarchy_stacks_within_regions_only():
    """Equal shards behind an MLP stack.  The regions' cohorts are cut
    separately (20 clients, two regions of 10: blocks of 10, never one
    block of 16 across the boundary), and each block trains against its
    own region's model — which differs from the other's after round 0."""
    fed = make_virtual_federation(
        20, seed=5, similarity=0.3, samples_per_client=12, num_test=32
    ).materialize()

    def model_fn():
        return build_model("mlp", fed.spec, seed=2, scale=0.25)

    config = _config(seed=72)
    serial_tracer, served_tracer = Tracer(), Tracer()
    serial = make_algorithm("fedavg")
    serial_history = run_federated(serial, fed, model_fn, config, tracer=serial_tracer)
    served = _served(make_algorithm("fedavg"), fed, model_fn, config, served_tracer)
    assert_equivalent_runs((serial, serial_history), served)
    counted = _counters(served_tracer, "executor.")
    assert counted == _counters(serial_tracer, "executor.")
    assert counted == {
        "executor.stacked_blocks": 2 * config.rounds,
        "executor.stacked_clients": 20 * config.rounds,
    }


class _DeviceLatencyFedAvg(FedAvg):
    """FedAvg whose clients carry a fixed simulated device latency."""

    name = "fedavg"
    latency = 0.25

    def _client_update(self, round_idx, client_id):
        time.sleep(self.latency)
        return super()._client_update(round_idx, client_id)


def test_region_wave_overlaps_device_latency():
    """Device time overlaps across workers, whatever the host's core
    count: two workers take the two regions' four clients a round in
    about half the serial time, and the run is the serial run."""
    fed = make_toy_federation(similarity=0.5)
    config = _config(rounds=2, seed=73)
    serial = _DeviceLatencyFedAvg()
    started = time.perf_counter()
    serial_history = run_federated(serial, fed, tiny_model_fn(fed), config)
    serial_seconds = time.perf_counter() - started

    parallel = _DeviceLatencyFedAvg()
    started = time.perf_counter()
    parallel_history = run_federated(
        parallel, fed, tiny_model_fn(fed),
        config.with_updates(num_workers=2, executor="process"),
    )
    parallel_seconds = time.perf_counter() - started
    assert not parallel.executor.degraded
    assert_equivalent_runs((serial, serial_history), (parallel, parallel_history))
    assert serial_seconds / parallel_seconds >= 1.3
