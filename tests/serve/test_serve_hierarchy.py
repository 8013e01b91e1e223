"""A hierarchical round on the worker engine: every region in one wave.

``ServeExecutor.run_regions`` sends all regions' clients through one
served round — one state frame for the union cohort, once a connection,
a region's model frame wherever a connection turns to that region's
blocks, blocks that never straddle two regions.  None of that may show in the numbers: served ``hier:R:P`` runs
equal the serial hierarchical run bit for bit (for every algorithm, with
one served round a round: the ``hier:2:2`` rows of
``tests/test_engine_identity.py``).
"""

from __future__ import annotations

import os
import time
import warnings
from collections import Counter

from repro.algorithms import FedAvg, make_algorithm
from repro.data import make_virtual_federation
from repro.fl.config import FLConfig
from repro.fl.trainer import run_federated
from repro.models import build_model
from repro.obs import Tracer
from repro.serve import protocol
from repro.serve.server import ServeExecutor
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


def test_a_region_switch_sends_its_model_not_the_shared_state(tmp_path, monkeypatch):
    """rFedAvg+'s delta table rides in the shared state frame, which a
    connection is sent once a round; turning to the other region's
    blocks sends that region's model frame alone.  An in-flight cap of
    one hands the blocks to the first connection that is free, so one
    turns regions within a round."""
    fed = make_toy_federation(similarity=0.0, num_clients=8)
    config = _config(seed=74)
    serial = make_algorithm("rfedavg+", lam=1e-3)
    serial_history = run_federated(serial, fed, tiny_model_fn(fed), config)

    parse = protocol.parse_message

    def logged(message):  # each worker logs the state and model frames it reads
        kind, payload = parse(message)
        if kind in ("state", "model"):
            with open(tmp_path / f"{os.getpid()}.log", "a") as handle:
                handle.write(f"{kind} {payload['serve.seq']}\n")
        return kind, payload

    monkeypatch.setattr(protocol, "parse_message", logged)
    algorithm = make_algorithm("rfedavg+", lam=1e-3).with_executor(ServeExecutor(2, max_inflight=1))
    served = _served(algorithm, fed, tiny_model_fn(fed), config, Tracer())
    assert_equivalent_runs((serial, serial_history), served)
    switched = 0
    for log in tmp_path.glob("*.log"):
        frames = [line.split() for line in log.read_text().splitlines()]
        states = [seq for kind, seq in frames if kind == "state"]
        assert len(states) == len(set(states)), f"{log.name}: a state frame sent twice"
        models = Counter(seq for kind, seq in frames if kind == "model")
        assert set(models) <= set(states) and max(models.values()) <= 2
        switched += sum(count == 2 for count in models.values())
    assert switched, "no connection took both regions' blocks in a round"


class _DeviceLatencyFedAvg(FedAvg):
    """FedAvg whose clients carry a fixed simulated device latency.  With
    ``log`` set, each client appends ``pid start end`` of its latency
    window there (``time.monotonic``: one clock for every process)."""

    name = "fedavg"
    latency = 0.25
    log = None

    def _client_update(self, round_idx, client_id):
        started = time.monotonic()
        time.sleep(self.latency)
        if self.log is not None:
            with open(self.log, "a") as handle:
                handle.write(f"{os.getpid()} {started!r} {time.monotonic()!r}\n")
        return super()._client_update(round_idx, client_id)


def test_region_wave_overlaps_device_latency(tmp_path):
    """Device time overlaps across workers, whatever the host's core
    count or load: the two regions' clients train in one wave, so two
    workers sit in device latency at the same time, and the run is the
    serial run."""
    fed = make_toy_federation(similarity=0.5)
    config = _config(rounds=2, seed=73)
    serial = _DeviceLatencyFedAvg()
    serial_history = run_federated(serial, fed, tiny_model_fn(fed), config)

    parallel = _DeviceLatencyFedAvg()
    parallel.log = str(tmp_path / "latency.log")
    parallel_history = run_federated(
        parallel, fed, tiny_model_fn(fed),
        config.with_updates(num_workers=2, executor="process"),
    )
    assert not parallel.executor.degraded
    assert_equivalent_runs((serial, serial_history), (parallel, parallel_history))
    with open(parallel.log) as handle:
        windows = [(int(pid), float(start), float(end))
                   for pid, start, end in map(str.split, handle)]
    assert len(windows) == 4 * config.rounds  # two regions of two clients
    pids = {pid for pid, _start, _end in windows}
    assert len(pids) == 2 and os.getpid() not in pids  # both workers trained
    overlapping = [
        (a, b) for a in windows for b in windows
        if a[0] < b[0] and a[1] < b[2] and b[1] < a[2]
    ]
    assert overlapping, f"no two workers' latency windows overlap: {windows}"
