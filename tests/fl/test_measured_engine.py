"""``executor='auto'`` with workers to spare: the measured engine.

A run starts in process; the first call with two or more dispatch units
trains its first unit in process, times it, and hands the rest of the
call and later calls to the worker engine only when the rest is
predicted to take longer than ``HANDOFF_SECONDS`` in process.  A worker
call slower than in process (speedup below 1) sends the run back for
good.  Whichever engine trains a client, the run is bit-identical to
``executor='serial'``.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.algorithms import make_algorithm
from repro.experiments import (
    build_image_federation,
    build_sent140_federation,
    cross_device_config,
    cross_silo_config,
    default_model_fn,
)
from repro.fl import parallel
from repro.fl.parallel import MeasuredExecutor, SerialExecutor, make_executor
from repro.fl.trainer import run_federated
from repro.obs import sysinfo
from repro.obs.trace import Tracer
from tests.helpers import assert_equivalent_runs

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(sysinfo.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def _silo_cnn():
    fed = build_image_federation(
        "synth_cifar", num_clients=6, num_train=240, num_test=40, image_size=8, seed=3
    )
    config = cross_silo_config(rounds=2, local_steps=2, batch_size=8, eval_every=1, seed=3)
    return ("rfedavg", {"lam": 1e-3}), fed, default_model_fn("cnn", fed.spec, seed=3), config


def _async_lstm():
    fed = build_sent140_federation(
        num_users=10, tweets_per_user=12.0, seq_len=6, vocab_size=100, seed=4
    )
    config = cross_device_config(
        rounds=4, local_steps=2, batch_size=8, eval_every=2, seed=4, sample_ratio=0.5,
        optimizer="rmsprop", lr=0.01, execution="async",
        runtime="gaussian:mean=1,std=0.1,het=1", buffer_size=3, dispatch_cap=False,
    )
    return ("rfedavg+", {"lam": 1e-2}), fed, default_model_fn("lstm", fed.spec, seed=4), config


def _hier_mlp():
    fed = build_image_federation(
        "synth_mnist", num_clients=12, num_train=480, num_test=40, image_size=10, seed=5
    )
    config = cross_device_config(
        rounds=3, local_steps=2, batch_size=8, eval_every=1, seed=5, sample_ratio=0.5,
        topology="hier:2:2",
    )
    return ("rfedavg+", {"lam": 1e-3}), fed, default_model_fn("mlp", fed.spec, seed=5), config


def _run(job, tracer=None, **overrides):
    (name, kwargs), fed, model_fn, config = job
    algorithm = make_algorithm(name, **kwargs)
    history = run_federated(
        algorithm, fed, model_fn, config.with_updates(**overrides), tracer=tracer
    )
    return algorithm, history


def _placements(tracer) -> dict:
    counters = tracer.metrics.state_dict()["counters"]
    return {k: v for k, v in counters.items() if k.startswith("executor.placement")}


@pytest.mark.parametrize("job", [_silo_cnn, _async_lstm, _hier_mlp], ids=lambda f: f.__name__)
def test_handed_off_runs_equal_serial(job, two_cpus, monkeypatch):
    """With the hand-off threshold at 0 and no speedup check, every call
    after the probe runs on the workers: params, ledgers and history
    equal the serial engine's."""
    monkeypatch.setattr(parallel, "HANDOFF_SECONDS", 0.0)
    monkeypatch.setattr(parallel, "speedup", lambda updates, elapsed: float("inf"))
    serial = _run(job(), executor="serial", num_workers=1)
    tracer = Tracer()
    measured = _run(job(), tracer=tracer, num_workers=2)
    assert_equivalent_runs(serial, measured)
    executor = measured[0].executor
    assert isinstance(executor, MeasuredExecutor) and executor.placement == "process"
    assert not executor.degraded
    assert _placements(tracer) == {"executor.placement{engine=process,reason=probe}": 1}
    assert tracer.metrics.state_dict()["counters"]["serve.rounds"] >= 1
    assert multiprocessing.active_children() == []


def _recording_pids(algorithm) -> list[list[int]]:
    """Every executor call's update ``worker`` pids, call by call: the
    executor the run's setup builds is wrapped as it is built."""
    calls: list[list[int]] = []
    setup = algorithm.setup

    def setup_and_wrap(*args):
        setup(*args)
        stream = algorithm.executor.stream

        def recording(*call_args):
            calls.append([])
            for group, update in stream(*call_args):
                calls[-1].append(update.worker)
                yield group, update

        algorithm.executor.stream = recording

    algorithm.setup = setup_and_wrap
    return calls


def test_a_round_below_the_threshold_never_forks(two_cpus, monkeypatch):
    forks = []
    start = multiprocessing.context.ForkProcess.start

    def counting_start(self):
        forks.append(self.name)
        start(self)

    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", counting_start)
    fed = build_image_federation(
        "synth_mnist", num_clients=40, num_train=400, num_test=20, image_size=10, seed=1
    )
    algorithm = make_algorithm("fedavg")
    calls = _recording_pids(algorithm)
    tracer = Tracer()
    config = cross_silo_config(rounds=3, local_steps=1, batch_size=4, eval_every=3, seed=1)
    assert config.num_workers == 2
    run_federated(algorithm, fed, default_model_fn("mlp", fed.spec), config, tracer=tracer)
    assert len(calls) == 3 and all(pid == 0 for pids in calls for pid in pids)
    assert algorithm.executor.placement == "serial"
    assert forks == []
    assert _placements(tracer) == {"executor.placement{engine=serial,reason=probe}": 1}


def test_a_worker_round_with_no_speedup_returns_in_process(two_cpus, monkeypatch):
    """The hand-off call pays the fork and is not judged; the next
    worker call is, and below a speedup of 1 the run goes back in
    process for good."""
    monkeypatch.setattr(parallel, "HANDOFF_SECONDS", 0.0)
    monkeypatch.setattr(parallel, "speedup", lambda updates, elapsed: 0.5)
    serial = _run(_silo_cnn(), executor="serial", num_workers=1, rounds=4)
    (name, kwargs), fed, model_fn, config = _silo_cnn()
    algorithm = make_algorithm(name, **kwargs)
    calls = _recording_pids(algorithm)
    tracer = Tracer()
    history = run_federated(
        algorithm, fed, model_fn, config.with_updates(rounds=4), tracer=tracer
    )
    assert_equivalent_runs(serial, (algorithm, history))
    (probe, *handed_off), judged, *later = calls
    assert probe == 0 and handed_off and all(pid != 0 for pid in handed_off)
    assert all(pid != 0 for pid in judged)
    assert len(later) == 2 and all(pid == 0 for pids in later for pid in pids)
    assert algorithm.executor.placement == "serial"
    assert _placements(tracer) == {
        "executor.placement{engine=process,reason=probe}": 1,
        "executor.placement{engine=serial,reason=no_gain}": 1,
    }
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("preset", [cross_silo_config, cross_device_config])
def test_one_cpu_presets_resolve_to_serial(preset, monkeypatch):
    monkeypatch.setattr(sysinfo.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(sysinfo.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    config = preset(rounds=1)
    assert config.num_workers == 1
    assert type(make_executor(config)) is SerialExecutor


def test_presets_default_to_the_usable_cpus(two_cpus):
    assert cross_silo_config().num_workers == 2
    assert cross_device_config(num_workers=1).num_workers == 1
    assert isinstance(make_executor(cross_silo_config()), MeasuredExecutor)


def test_auto_without_fork_is_serial_silently(two_cpus, monkeypatch):
    """A daemonic parent may not fork: ``auto`` is the serial engine with
    the reason counted, and no warning; explicit ``process`` warns."""
    monkeypatch.setattr(multiprocessing.current_process(), "daemon", True)
    assert sysinfo.fork_refusal() == "a daemonic process may not have children"
    tracer = Tracer()
    executor = make_executor(cross_silo_config(), metrics=tracer.metrics)
    assert type(executor) is SerialExecutor
    assert _placements(tracer) == {"executor.placement{engine=serial,reason=no_fork}": 1}
    serial = _run(_silo_cnn(), executor="serial", num_workers=1)
    with pytest.warns(RuntimeWarning, match="daemonic"):
        forced = _run(_silo_cnn(), executor="process")
    assert_equivalent_runs(serial, forced)
    assert forced[0].executor.degraded
