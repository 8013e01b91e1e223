"""The render-ahead helper of a virtual population changes *where* a
shard is rendered, never its bytes.

A forked child renders the cohort's shards, and the next cohort's (peeked
from a copy of the round RNG), while the trainer trains.  With the helper
on or off (the CPU predicate monkeypatched), the run is the same: params,
history, ledgers, the checkpoint's RNG section and the count of shards
taken.  Forked workers never touch it, a lost helper degrades once to
inline rendering, and no child outlives ``run_federated``.
"""

from __future__ import annotations

import multiprocessing
import signal
import warnings

import pytest

from repro.algorithms import make_algorithm
from repro.ckpt.format import read_checkpoint
from repro.ckpt.state import SECTION_ALGORITHM, SECTION_LEDGER, SECTION_MODEL, SECTION_RNG
from repro.data import make_virtual_federation
from repro.data.virtual import VirtualClientSet, materialize_client
from repro.fl.config import FLConfig
from repro.fl.faults import FaultModel
from repro.fl.parallel import SerialExecutor, make_executor
from repro.fl.trainer import run_federated
from repro.obs import sysinfo
from repro.obs.trace import Tracer
from tests.helpers import assert_equivalent_runs, run_with_workers, tiny_model_fn

ROUNDS = 5
RFEDAVG_PLUS = ("rfedavg+", {"lam": 1e-3})


def _config(**overrides) -> FLConfig:
    base = dict(
        rounds=ROUNDS, local_steps=2, batch_size=8, lr=0.1, seed=23,
        sample_ratio=0.25, eval_every=2, sampler="reservoir",
    )
    base.update(overrides)
    return FLConfig(**base)


def _fed():
    return make_virtual_federation(
        40, seed=7, similarity=0.3, samples_per_client=8, size_sigma=0.3, max_live=32,
    )


def _helper(on: bool):
    """The CPU count the helper is forked behind, forced."""
    return lambda: 2 if on else 1


@pytest.fixture
def helper_on(monkeypatch):
    monkeypatch.setattr(sysinfo, "usable_cpus", _helper(True))


def _run(fed, config, on: bool, monkeypatch, name_kwargs=RFEDAVG_PLUS, **kwargs):
    monkeypatch.setattr(sysinfo, "usable_cpus", _helper(on))
    name, algorithm_kwargs = name_kwargs
    algorithm = make_algorithm(name, **algorithm_kwargs)
    decorate = kwargs.pop("decorate", None)
    if decorate is not None:
        decorate(algorithm)
    history = run_federated(algorithm, fed, tiny_model_fn(fed), config, **kwargs)
    return algorithm, history


def _sections(directory) -> dict[str, bytes]:
    newest = sorted(directory.glob("ckpt-*.rck"))[-1]
    _manifest, sections = read_checkpoint(newest)
    return sections


# -- same bytes, helper on or off ----------------------------------------------------


def test_helper_on_equals_helper_off(monkeypatch, tmp_path):
    """Params, history, both ledgers, the checkpoint's RNG section and
    the shards taken.  The eager materialization is the run nothing
    peeks in: the peek must never advance the real stream."""
    runs, sections, taken = [], [], []
    for name, on in (("eager", False), ("off", False), ("on", True)):
        fed = _fed().materialize() if name == "eager" else _fed()
        directory = tmp_path / name
        config = _config(checkpoint_dir=str(directory))
        runs.append(_run(fed, config, on, monkeypatch))
        sections.append(_sections(directory))
        if name != "eager":
            taken.append(fed.clients.materializations)
    for run, run_sections in zip(runs[1:], sections[1:]):
        assert_equivalent_runs(runs[0], run)
        for key in ("up", "down"):
            assert run[0].ledger.total(key) == runs[0][0].ledger.total(key)
        for name in (SECTION_RNG, SECTION_MODEL, SECTION_ALGORITHM, SECTION_LEDGER):
            assert run_sections[name] == sections[0][name], name
    assert taken == [ROUNDS * 10, ROUNDS * 10]


def test_crash_resume_with_the_helper_matches_the_run_without(monkeypatch, tmp_path):
    baseline = _run(_fed(), _config(), False, monkeypatch)

    class Crash(Exception):
        pass

    def crash(record):
        if record.round_idx == 2:
            raise Crash

    fed = _fed()
    config = _config(checkpoint_dir=str(tmp_path / "ckpt"), checkpoint_keep=50)
    with pytest.raises(Crash):
        _run(fed, config, True, monkeypatch, callbacks=[crash])
    assert multiprocessing.active_children() == []
    resumed = _run(fed, config.with_updates(resume=True), True, monkeypatch)
    assert_equivalent_runs(baseline, resumed)


def test_the_helper_renders_the_bytes_of_materialize_client(helper_on):
    fed = _fed()
    clients = fed.clients
    clients.render_ahead([3, 1], [9])
    try:
        for client_id in (1, 3, 9):
            shard = clients[client_id]
            expected = materialize_client(fed.partition, client_id, int(fed.client_sizes[client_id]))
            assert shard.x.dtype == expected.x.dtype and shard.y.dtype == expected.y.dtype
            assert shard.x.tobytes() == expected.x.tobytes()
            assert shard.y.tobytes() == expected.y.tobytes()
        assert not clients.render_ahead_lost
        assert clients.materializations == 3
    finally:
        clients.close()


# -- bookkeeping: what a round never asks for ----------------------------------------


def test_release_drops_what_the_next_round_does_not_want(helper_on):
    clients = _fed().clients
    clients.render_ahead([1, 2, 3], [4, 5])
    try:
        clients[2]  # 1 arrives first and waits, ready
        assert set(clients._ready) == {1}
        clients.release()
        # 1 and 3 were this round's and never taken: gone, uncounted;
        # 4 and 5 stay pending for the next round.
        assert clients._ready == {}
        assert list(clients._ahead.pending) == [4, 5]
        assert clients.materializations == 1
        clients.render_ahead([4, 5], [6])
        assert list(clients._ahead.pending) == [4, 5, 6]
        clients[5]
        assert clients.materializations == 2
    finally:
        clients.close()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("engine", ["async", "faults"])
def test_unrequested_shards_are_dropped_uncounted(monkeypatch, engine):
    """Async ``dispatch_cap`` deferrals and fault dropouts leave shards
    the helper rendered untaken: dropped at ``release()``, not counted,
    and the pending queue stays within a cohort across rounds."""
    rounds = 8
    if engine == "async":
        config = _config(
            rounds=rounds, execution="async", buffer_size=3,
            runtime="gaussian:het=1.0,std=0.2", sample_ratio=0.5,
        )
        decorate = None
    else:
        config = _config(rounds=rounds, sample_ratio=0.5)

        def decorate(algorithm):
            algorithm.with_faults(FaultModel(dropout_prob=0.5, seed=3))

    after_release = []
    release = VirtualClientSet.release

    def spy(self):
        release(self)
        helper = self._helper()
        if helper is not None:
            after_release.append((len(helper.pending), set(self._ready) <= self._upcoming))

    monkeypatch.setattr(VirtualClientSet, "release", spy)
    runs, taken = [], []
    for on in (False, True):
        fed = _fed()
        tracer = Tracer()
        runs.append(_run(fed, config, on, monkeypatch, decorate=decorate, tracer=tracer))
        taken.append(fed.clients.materializations)
    assert_equivalent_runs(*runs)
    cohort = 20
    assert taken[0] == taken[1] < rounds * cohort  # some shards were never asked for
    if engine == "async":
        assert tracer.metrics.state_dict()["counters"]["async.deferred_dispatches"] > 0
    assert len(after_release) == rounds
    assert max(pending for pending, _ in after_release) <= cohort
    assert all(ready_wanted for _, ready_wanted in after_release)


# -- processes: forked workers, a lost helper, nothing left behind -------------------


def _child_reads(clients, client_id, conn) -> None:
    shard = clients[client_id]
    conn.send((clients._helper() is None, clients.materializations, shard.x.tobytes()))


def test_a_forked_process_renders_inline_and_leaves_the_helper_alone(helper_on):
    fed = _fed()
    clients = fed.clients
    clients.render_ahead([0, 1, 2])
    try:
        context = multiprocessing.get_context("fork")
        parent_conn, child_conn = context.Pipe()
        child = context.Process(target=_child_reads, args=(clients, 1, child_conn))
        child.start()
        assert parent_conn.poll(30)
        inline, count, x = parent_conn.recv()
        child.join(30)
        assert not child.is_alive()
        assert inline and count == 1
        assert x == materialize_client(fed.partition, 1, int(fed.client_sizes[1])).x.tobytes()
        # The parent's stream is untouched: all three arrive, in order.
        for client_id in (0, 1, 2):
            clients[client_id]
        assert not clients.render_ahead_lost
        assert clients._ahead.pending == {}
    finally:
        clients.close()


def test_process_executor_over_a_virtual_population_equals_serial(monkeypatch):
    """Workers forked after the helper inherit it but never read its
    socket (the owner-pid guard): no lost helper, serial's numbers."""
    monkeypatch.setattr(sysinfo, "usable_cpus", _helper(True))
    name, kwargs = RFEDAVG_PLUS
    config = _config()
    serial = run_with_workers(name, kwargs, _fed(), config, num_workers=1)
    fed = _fed()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        served = run_with_workers(name, kwargs, fed, config, num_workers=2, executor="process")
    assert_equivalent_runs(serial, served)
    assert served[0].executor.name == "process" and not served[0].executor.degraded
    assert multiprocessing.active_children() == []


def test_a_killed_helper_warns_once_counts_and_finishes_inline(monkeypatch):
    uninterrupted = _run(_fed(), _config(), False, monkeypatch)
    fed = _fed()

    def kill(record):
        if record.round_idx == 1:
            fed.clients._ahead.proc.kill()
            fed.clients._ahead.proc.join(30)
            assert not fed.clients._ahead.proc.is_alive()

    tracer = Tracer()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        interrupted = _run(fed, _config(), True, monkeypatch, callbacks=[kill], tracer=tracer)
    lost = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert len(lost) == 1 and "render-ahead" in str(lost[0].message)
    assert tracer.metrics.state_dict()["counters"]["data.render_ahead_lost"] == 1
    assert_equivalent_runs(uninterrupted, interrupted)
    assert fed.clients.materializations == ROUNDS * 10
    assert multiprocessing.active_children() == []


def test_no_child_outlives_a_run_that_returns_or_raises(monkeypatch):
    _run(_fed(), _config(), True, monkeypatch)
    assert multiprocessing.active_children() == []

    def fail(record):
        if record.round_idx == 1:
            raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        _run(_fed(), _config(), True, monkeypatch, callbacks=[fail])
    assert multiprocessing.active_children() == []


# -- the CPU predicate ---------------------------------------------------------------


def test_one_cpu_of_affinity_means_serial_and_no_helper(monkeypatch):
    """The predicate reads the affinity mask, not ``os.cpu_count()``: a
    process pinned to one CPU of eight gets the serial engine and renders
    every shard inline, without forking."""
    monkeypatch.setattr(sysinfo.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(sysinfo.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert isinstance(make_executor(_config(num_workers=4)), SerialExecutor)

    forks = []
    start = multiprocessing.context.ForkProcess.start

    def counting_start(self):
        forks.append(self.name)
        start(self)

    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", counting_start)
    fed = _fed()
    name, kwargs = RFEDAVG_PLUS
    algorithm = make_algorithm(name, **kwargs)
    run_federated(algorithm, fed, tiny_model_fn(fed), _config(num_workers=4))
    assert forks == []
    assert fed.clients._ahead is None
    assert fed.clients.materializations == ROUNDS * 10


def test_helper_send_buffer_holds_a_cohort(helper_on):
    """The child's send buffer is asked for a cohort of shard bytes, so it
    can render a whole cohort unread; the kernel's grant is read back
    (``net.core.wmem_max`` caps it)."""
    fed = _fed()
    clients = fed.clients
    ids = list(range(40))
    clients.render_ahead(ids)
    try:
        asked = clients._shard_bytes(ids)
        pixels = fed.partition.image_size ** 2
        assert asked == sum(8 + 8 * (1 + pixels) * int(fed.client_sizes[k]) for k in ids)
        assert asked > 212_992  # above the usual default, so it was asked for
        with open("/proc/sys/net/core/wmem_max") as handle:
            cap = int(handle.read())
        assert clients._ahead.granted_bytes >= min(asked, cap)
    finally:
        clients.close()


def test_close_reaps_the_helper_and_resets(helper_on):
    clients = _fed().clients
    clients.render_ahead(list(range(10)))
    proc = clients._ahead.proc
    clients.close()
    assert proc.exitcode in (0, -signal.SIGKILL)
    assert multiprocessing.active_children() == []
    assert clients._ahead is None and not clients.render_ahead_lost
