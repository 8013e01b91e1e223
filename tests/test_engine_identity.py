"""The house invariant as one table: every way of running a job is the
serial sync run of that job, bit for bit.

A **row** is an algorithm (:data:`ALGORITHMS`, one per registered
algorithm).  A **base** is the job (:data:`BASES`: config overrides, the
federation, optionally a decoration of the fresh algorithm and a check
that the job engages what its name says).  A **leg** is one way of
running the base job, ``+``-joined modes from :data:`MODES`:

* placement — ``process`` (forked workers over a Unix socket),
  ``process:16`` (more workers than clients), ``serve-tcp``
  (``execution='serve'`` on TCP), ``queue_bytes=1`` / ``max_inflight=N``
  (a :class:`~repro.serve.server.ServeExecutor` built with that bound
  and attached with ``with_executor``);
* schedule — ``async-instant`` (zero latency, full-cohort buffer);
* topology — ``hier:1:1`` (one region, cloud step every round);
* population — ``virtual`` (lazy shards in place of the eager ones);
* state layout — ``state_cap=2`` (rows spill past two resident);
* crash point — ``resume`` (checkpoint every round, drop those from
  mid-run on, resume) and ``resume-from-sync`` (the checkpoints are
  written by the serial sync run, then resumed under the leg).

Every leg must equal :func:`reference`, the serial sync run of its
(algorithm, base), computed once and shared by every leg that needs it.
Where a combination is refused, :func:`legal` names the typed error and
the case asserts it is raised.  Worker-engine legs fork
``REPRO_EQUIV_WORKERS`` workers (default 2); CI selects legs with ``-k``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import product
from typing import Callable

import numpy as np
import pytest

from repro.algorithms import ALGORITHMS as REGISTRY
from repro.algorithms import make_algorithm
from repro.data import make_virtual_federation
from repro.exceptions import ConfigError
from repro.fl.config import FLConfig
from repro.fl.faults import FaultModel
from repro.fl.hierarchy import parse_topology_spec
from repro.fl.trainer import run_federated
from repro.obs import Tracer
from repro.serve.server import ServeExecutor
from tests.conftest import make_toy_federation
from tests.helpers import WORKERS, assert_equivalent_runs, simulate_crash, tiny_model_fn

# A worker-engine leg that degrades to serial warns, and must fail here
# rather than pass as the serial engine.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

# (name, constructor kwargs, slow?) — one row per registered algorithm.
ALGORITHMS = [
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
KWARGS = {name: kwargs for name, kwargs, _ in ALGORITHMS}
EVERY = list(KWARGS)


def test_every_registered_algorithm_is_a_row():
    """A new algorithm must be added to the table."""
    assert set(EVERY) == set(REGISTRY)


# -- bases: the jobs ------------------------------------------------------------------


@functools.cache
def _fed(name: str):
    if name == "toy":
        return make_toy_federation(similarity=0.0)
    if name == "virtual":
        return make_virtual_federation(
            12, seed=5, similarity=0.2, samples_per_client=16, size_sigma=0.4,
            max_live=4,
        )
    return _fed("virtual").materialize()  # "eager": the same clients, in memory


def _with_faults(algorithm) -> None:
    algorithm.with_faults(FaultModel(dropout_prob=0.4, seed=9))


def _same_dropouts(name, ref, run) -> None:
    """The fault model's counters survive the leg (a resume restores them)."""
    assert run[0].fault_model.dropped_total == ref[0].fault_model.dropped_total > 0


def _residuals_engaged(name, ref, run) -> None:
    """Every client carries an error-feedback residual into the leg, so a
    resume restores non-trivial ``ef_residuals`` segments."""
    algorithm = run[0]
    norms = [
        np.linalg.norm(algorithm._residuals.get(cid))
        for cid in range(algorithm.fed.num_clients)
    ]
    assert max(norms) > 0.0, "residuals never became non-trivial — weak row"


def _cloud_hop_engaged(name, ref, run) -> None:
    """The compressed cloud hop is numerically relevant state."""
    dense = reference(name, "hier:2:2")
    assert not np.array_equal(ref[0].global_params, dense[0].global_params)


@dataclass(frozen=True)
class Base:
    config: dict
    fed: str = "toy"
    decorate: Callable | None = None
    check: Callable | None = None  # check(algorithm name, reference, leg run)


TOY = dict(rounds=4, local_steps=2, batch_size=8, lr=0.1, seed=11)
SCALE = dict(
    rounds=5, local_steps=2, batch_size=8, lr=0.1, seed=41, sample_ratio=0.5,
    eval_every=2,
)
EF = "topk:0.25|qsgd:8"

BASES = {
    "sync": Base(TOY),
    "partial": Base({**TOY, "sample_ratio": 0.5}),
    "float32": Base({**TOY, "dtype": "float32"}),
    "hier:2:2": Base({**TOY, "topology": "hier:2:2"}),
    "hier:2:2-float32": Base({**TOY, "topology": "hier:2:2", "dtype": "float32"}),
    "hier:2:3": Base({**TOY, "topology": "hier:2:3", "rounds": 6}),
    "hier:2:2-cloud-topk": Base(
        {**TOY, "topology": "hier:2:2", "cloud_compression": "topk:0.25"},
        check=_cloud_hop_engaged,
    ),
    "topk": Base({**TOY, "compression": "topk:0.25"}),
    "topk-sign": Base({**TOY, "compression": "topk:0.5|sign"}),
    "topk-qsgd": Base({**TOY, "compression": EF}, check=_residuals_engaged),
    "topk-qsgd-sync": Base(
        {**TOY, "compression": EF, "sync_compression": "qsgd:8"},
        check=_residuals_engaged,
    ),
    # Updates in flight at every checkpoint: stragglers land stale.
    "gaussian-topk-qsgd": Base(
        {**TOY, "rounds": 6, "execution": "async", "runtime": "gaussian:het=1.0",
         "buffer_size": 2, "compression": EF},
        check=_residuals_engaged,
    ),
    "faults": Base(TOY, decorate=_with_faults, check=_same_dropouts),
    "eager": Base(SCALE, fed="eager"),
    "eager-reservoir": Base({**SCALE, "sampler": "reservoir"}, fed="eager"),
}


def _run(name, base, fed, config, executor=None, tracer=None):
    algorithm = make_algorithm(name, **KWARGS[name])
    if base.decorate is not None:
        base.decorate(algorithm)
    if executor is not None:
        algorithm.with_executor(executor())
    history = run_federated(algorithm, fed, tiny_model_fn(fed), config, tracer=tracer)
    return algorithm, history


@functools.cache
def reference(name: str, base: str):
    """The serial run of ``base`` that every leg of the row must equal,
    run once and shared: legs read it and never mutate it."""
    job = BASES[base]
    config = FLConfig(**job.config).with_updates(num_workers=1, executor="serial")
    return _run(name, job, _fed(job.fed), config)


# -- modes: what a leg changes --------------------------------------------------------


@dataclass
class Leg:
    config: FLConfig
    fed: object
    executor: Callable | None = None  # builds the engine a run attaches
    tracer: Tracer | None = None
    resume: str | None = None  # None | "same" | "from-sync"
    checks: list = field(default_factory=list)  # check(leg, run)


def _on_workers(leg, name: str) -> None:
    """The leg's run must train on the workers, not in process."""
    leg.tracer = Tracer()

    def check(leg, run):
        executor = run[0].executor
        assert executor.name == name
        assert not executor.degraded  # degrading would mask a packing regression
        served = leg.tracer.metrics.snapshot()["counters"].get("serve.rounds", 0)
        if leg.resume is None and leg.config.execution != "async":
            # Every round on the workers, in one wave (not one per region).
            assert served == leg.config.rounds
        else:
            assert served > 0

    leg.checks.append(check)


def _set(**updates):
    def mode(leg):
        leg.config = leg.config.with_updates(**updates)

    return mode


def _placement(name: str, **updates):
    def mode(leg):
        _set(**updates)(leg)
        _on_workers(leg, name)

    return mode


def _attached(**bounds):
    def mode(leg):
        leg.executor = lambda: ServeExecutor(WORKERS, name="process", **bounds)
        _on_workers(leg, "process")
        if "max_inflight" in bounds:
            leg.checks.append(check_cap)

    def check_cap(leg, run):
        assert run[0].executor.max_inflight == bounds["max_inflight"]

    return mode


def _async_instant(leg):
    leg.config = leg.config.with_updates(execution="async")

    def check(leg, run):
        assert run[1].async_history.max_staleness() == 0
        assert run[1].async_history.discarded_updates == 0

    leg.checks.append(check)


def _virtual(leg):
    assert leg.fed is _fed("eager"), "the virtual mode replaces an eager base"
    leg.fed = _fed("virtual")

    def check(leg, run):
        assert leg.fed.clients.live_clients == 0  # released after the final round

    leg.checks.append(check)


def _state_cap(leg):
    leg.config = leg.config.with_updates(state_cap=2)

    def check(leg, run):
        assert run[0].delta_table.spilled_rows > 0  # the cap actually bit

    leg.checks.append(check)


def _resume(how):
    def mode(leg):
        leg.resume = how

    return mode


MODES = {
    "process": _placement("process", num_workers=WORKERS, executor="process"),
    "process:16": _placement("process", num_workers=16, executor="process"),
    "serve-tcp": _placement(
        "serve", execution="serve", num_workers=WORKERS, serve_addr="tcp:127.0.0.1:0"
    ),
    "queue_bytes=1": _attached(queue_bytes=1),
    "max_inflight=1": _attached(max_inflight=1),
    "max_inflight=2": _attached(max_inflight=2),
    "async-instant": _async_instant,
    "hier:1:1": _set(topology="hier:1:1"),
    "virtual": _virtual,
    "state_cap=2": _state_cap,
    "resume": _resume("same"),
    "resume-from-sync": _resume("from-sync"),
}


def run_leg(name: str, base: str, leg_name: str, tmp_path):
    """Run ``base`` the way ``leg_name`` says; returns ``(leg, run)``."""
    job = BASES[base]
    leg = Leg(FLConfig(**job.config), _fed(job.fed))
    for mode in leg_name.split("+"):
        MODES[mode](leg)
    if leg.resume is None:
        return leg, _run(name, job, leg.fed, leg.config, leg.executor, leg.tracer)
    ckpt_dir = tmp_path / "ckpt"
    checkpointed = dict(checkpoint_dir=str(ckpt_dir), checkpoint_keep=50)
    if leg.resume == "from-sync":
        writer = FLConfig(**job.config, **checkpointed)
        _run(name, job, leg.fed, writer.with_updates(executor="serial"))
    else:
        _run(name, job, leg.fed, leg.config.with_updates(**checkpointed), leg.executor)
    rounds = leg.config.rounds
    simulate_crash(ckpt_dir, rounds // 2, rounds)
    resumed = leg.config.with_updates(resume=True, **checkpointed)
    return leg, _run(name, job, leg.fed, resumed, leg.executor, leg.tracer)


def legal(name: str, base: str, leg_name: str):
    """``None`` where the case must equal its reference, else the
    ``(typed error, message)`` the combination is refused with."""
    modes = leg_name.split("+")
    topology = "hier:1:1" if "hier:1:1" in modes else BASES[base].config.get("topology", "flat")
    regions, _period = parse_topology_spec(topology)
    if name == "rfedavg_exact" and regions > 1:
        # Exact per-round global state cannot be aggregated per region.
        return ConfigError, "cannot aggregate per region"
    if topology != "flat" and "async-instant" in modes:
        return ConfigError, "hierarchical topology requires execution='sync'"
    return None


# -- the table ------------------------------------------------------------------------

CASES = [
    # The product every row runs.
    *product(EVERY, ["sync"], ["process", "async-instant", "hier:1:1", "resume"]),
    *product(EVERY, ["hier:2:2"], ["process"]),
    *product(EVERY, ["float32"], ["process", "async-instant"]),
    *product(EVERY, ["hier:2:2-float32"], ["process"]),
    # Placement: cohort sampling, oversized pools, the socket knobs.
    *product(["fedavg"], ["partial"], ["process", "async-instant", "hier:1:1"]),
    ("fedavg", "sync", "process:16"),
    *product(["fedavg", "scaffold", "rfedavg+"], ["sync"], ["serve-tcp"]),
    ("fedavg", "sync", "queue_bytes=1"),
    ("scaffold", "sync", "max_inflight=1"),
    *product(["fedavg", "scaffold"], ["sync"], ["max_inflight=2"]),
    ("scaffold", "sync", "async-instant+process"),
    # Compressed uploads over the socket.
    *product(["fedavg"], ["topk", "topk-qsgd", "topk-sign"], ["serve-tcp"]),
    ("rfedavg+", "topk-qsgd-sync", "serve-tcp"),
    # Crash points.
    ("fedavg", "sync", "hier:1:1+resume"),
    *product(["fedavg"], ["hier:2:2", "hier:2:3", "hier:2:2-cloud-topk"], ["resume"]),
    *product(["scaffold", "rfedavg+"], ["sync"], ["process+resume"]),
    ("scaffold", "sync", "serve-tcp+resume"),
    ("fedavg", "sync", "serve-tcp+resume-from-sync"),
    ("fedavg", "topk-qsgd", "resume"),
    ("rfedavg+", "topk-qsgd-sync", "resume"),
    ("scaffold", "faults", "resume"),
    *product(["fedavg", "rfedavg+"], ["topk-qsgd"], ["async-instant+resume"]),
    *product(["fedavg", "rfedavg+"], ["gaussian-topk-qsgd"], ["resume"]),
    # Population and state layout.
    *product(["fedavg", "rfedavg+", "scaffold", "moon"], ["eager"], ["virtual"]),
    ("fedavg", "eager-reservoir", "virtual"),
    *product(["scaffold", "moon"], ["eager"], ["virtual+process", "virtual+resume"]),
    *product(["rfedavg", "rfedavg+"], ["eager"], ["state_cap=2"]),
    # A refused pair: the async engine has no region tier.
    ("fedavg", "hier:2:2", "async-instant"),
]

SLOW = {name for name, _, slow in ALGORITHMS if slow}


@pytest.mark.parametrize(
    "name,base,leg_name",
    [
        pytest.param(
            *case, id="-".join(case),
            marks=[pytest.mark.slow] if case[0] in SLOW else [],
        )
        for case in CASES
    ],
)
def test_leg_equals_serial_sync(name, base, leg_name, tmp_path):
    refusal = legal(name, base, leg_name)
    if refusal is not None:
        error, match = refusal
        with pytest.raises(error, match=match):
            run_leg(name, base, leg_name, tmp_path)
        return
    leg, run = run_leg(name, base, leg_name, tmp_path)
    ref = reference(name, base)
    assert_equivalent_runs(ref, run)
    for check in leg.checks:
        check(leg, run)
    if BASES[base].check is not None:
        BASES[base].check(name, ref, run)
