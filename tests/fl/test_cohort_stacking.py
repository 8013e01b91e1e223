"""Stacked cohort execution against a per-client reference the tests own.

In-process, ``SerialExecutor`` trains a block of clients as one stacked
pass (``FederatedAlgorithm._block_update``) and rFedAvg+'s second
synchronization embeds a block of shards at once
(``RegularizedAlgorithm._client_deltas``) wherever
``FederatedAlgorithm.stack_refusal`` has no objection.  The contract is
that nobody can tell: same updates, same order, same bytes.  The
reference here never stacks anything — an executor that loops
``_client_update`` and a ``cohort_blocks`` that hands out blocks of one —
nor streams (its wave trains before the round commits), and every
comparison is exact.
"""

from __future__ import annotations

import hashlib
import os
import tracemalloc

import numpy as np
import pytest

import repro.algorithms.base as base
from repro.algorithms import ALGORITHMS, make_algorithm
from repro.core.privacy import GaussianDeltaMechanism
from repro.data import make_virtual_federation
from repro.experiments import presets
from repro.fl.config import FLConfig
from repro.fl.faults import FaultModel
from repro.fl.parallel import SerialExecutor
from repro.fl.trainer import run_federated
from repro.models import build_model
from repro.obs import Tracer
from tests.conftest import make_toy_federation
from tests.fl.test_client import _held_caches
from tests.helpers import assert_equivalent_runs, tiny_model_fn

BLOCK = 4  # the matrix shrinks COHORT_BLOCK so that three blocks are 12 clients
BATCH = 8
ROUNDS = 2


class OneByOne(SerialExecutor):
    """The per-client reference engine: blocks of one, always, and the
    whole wave trained before the round commits any of it."""

    def stream(self, algorithm, round_idx, regions):
        yield from list(super().stream(algorithm, round_idx, regions))

    def _blocks(self, algorithm, round_idx, client_ids):
        for c in client_ids:
            yield algorithm._client_update(round_idx, int(c))


def _never_stack(algorithm):
    algorithm.with_executor(OneByOne())
    algorithm.cohort_blocks = lambda client_ids: [([int(c)], None) for c in client_ids]


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(base, "COHORT_BLOCK", BLOCK)


# Cohorts (sample_ratio=1: everyone) as (population, {client: shard size}).
# Shards are 12 samples unless listed; the batch is 8.
COHORTS = {
    "one": (1, {}),
    "under_a_block": (3, {}),
    "three_blocks_and_two": (3 * BLOCK + 2, {}),
    "ragged_in_the_middle": (2 * BLOCK + 1, {BLOCK + 1: 15}),
    "shorter_than_the_batch": (2 * BLOCK + 1, {BLOCK + 1: 5}),
}


def _federation(cohort: str, population: str):
    count, sizes = COHORTS[cohort]
    virt = make_virtual_federation(
        count, seed=5, similarity=0.3, samples_per_client=12, image_size=9,
        num_test=32, max_live=3,
    )
    for client, size in sizes.items():
        virt.client_sizes[client] = size  # the array the lazy shards are cut from
    return virt if population == "virtual" else virt.materialize()


def _model_fn(fed, model: str):
    return lambda: build_model(model, fed.spec, seed=2, scale=0.25)


def _run(name, kwargs, fed, model_fn, config, *, stacked, decorate=None, tracer=None):
    algorithm = make_algorithm(name, **kwargs)
    if decorate is not None:
        decorate(algorithm)
    if not stacked:
        _never_stack(algorithm)
    history = run_federated(algorithm, fed, model_fn, config, tracer=tracer)
    return algorithm, history


def _assert_same(reference, stacked):
    assert_equivalent_runs(reference, stacked)
    (alg_a, hist_a), (alg_b, hist_b) = reference, stacked
    assert alg_a.global_params.dtype == alg_b.global_params.dtype
    assert (
        hashlib.sha256(alg_a.global_params.tobytes()).hexdigest()
        == hashlib.sha256(alg_b.global_params.tobytes()).hexdigest()
    )

    def records(history):
        out = history.to_dict()
        for record in out["records"]:
            del record["wall_time_sec"]
        return out

    assert records(hist_a) == records(hist_b)
    for key in ("up", "down", "up:model", "down:model", "up:delta", "down:delta"):
        assert alg_a.ledger.total(key) == alg_b.ledger.total(key)


def _counters(tracer, prefix="executor."):
    return {
        key: value
        for key, value in tracer.metrics.snapshot()["counters"].items()
        if key.startswith(prefix)
    }


# -- the matrix ---------------------------------------------------------------------

WIRE = {
    "dense": {},
    "compressed_uploads": {"compression": "topk:0.05|qsgd:8", "error_feedback": True},
    "compressed_second_sync": {"sync_compression": "topk:0.25|qsgd:8"},
}


@pytest.mark.parametrize("population", ["eager", "virtual"])
@pytest.mark.parametrize("cohort", sorted(COHORTS))
@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("model", ["mlp", "logistic"])
@pytest.mark.parametrize(
    "name, wire",
    # Only rFedAvg+ has a second synchronization to compress.
    [(name, wire) for name in ("fedavg", "rfedavg+") for wire in sorted(WIRE)
     if name == "rfedavg+" or wire != "compressed_second_sync"],
)
def test_stacked_cohort_is_the_per_client_cohort(
    small_blocks, name, wire, model, dtype, cohort, population
):
    fed = _federation(cohort, population)
    kwargs = {"lam": 1e-2} if name == "rfedavg+" else {}

    extra = dict(WIRE[wire])
    if population == "virtual":
        # Per-client tables spill: more clients than resident rows.
        extra.update(state_cap=2)
    config = FLConfig(
        rounds=ROUNDS, local_steps=2, batch_size=BATCH, lr=0.1, seed=13,
        dtype=dtype, **extra,
    )
    reference = _run(name, kwargs, fed, _model_fn(fed, model), config, stacked=False)
    stacked = _run(name, kwargs, fed, _model_fn(fed, model), config, stacked=True)
    _assert_same(reference, stacked)
    if population == "virtual" and name == "rfedavg+" and fed.num_clients > 2:
        assert stacked[0].delta_table.spilled_rows == reference[0].delta_table.spilled_rows > 0


# -- what else a round can carry -----------------------------------------------------


def _big(cohort="three_blocks_and_two"):
    return _federation(cohort, "eager")


def _config(**overrides) -> FLConfig:
    settings = dict(rounds=3, local_steps=2, batch_size=BATCH, lr=0.1, seed=13)
    settings.update(overrides)
    return FLConfig(**settings)


def test_privacy_noise_on_the_deltas(small_blocks):
    fed = _big()
    kwargs = {"lam": 1e-2}

    def private(algorithm):
        algorithm.privacy = GaussianDeltaMechanism(sigma=0.5, clip_norm=1.0)

    runs = [
        _run("rfedavg+", kwargs, fed, _model_fn(fed, "mlp"), _config(),
             stacked=stacked, decorate=private)
        for stacked in (False, True)
    ]
    _assert_same(*runs)
    plain = _run("rfedavg+", kwargs, fed, _model_fn(fed, "mlp"), _config(), stacked=True)
    assert not np.array_equal(plain[0].global_params, runs[1][0].global_params)


@pytest.mark.parametrize("name", ["fedavg", "rfedavg+"])
def test_dropout_and_byzantine_clients(small_blocks, name):
    fed = _big()
    kwargs = {"lam": 1e-2} if name == "rfedavg+" else {}

    def faulty(algorithm):
        algorithm.with_faults(
            FaultModel(dropout_prob=0.3, byzantine_clients=(1, 6), seed=4)
        )

    runs = [
        _run(name, kwargs, fed, _model_fn(fed, "mlp"), _config(),
             stacked=stacked, decorate=faulty)
        for stacked in (False, True)
    ]
    _assert_same(*runs)
    assert runs[1][0].fault_model.dropped_total == runs[0][0].fault_model.dropped_total > 0
    assert runs[1][0].fault_model.corrupted_total == runs[0][0].fault_model.corrupted_total > 0


@pytest.mark.parametrize(
    "engine", [{"execution": "async"}, {"topology": "hier:2:2"}], ids=["async", "hier"]
)
@pytest.mark.parametrize("name", ["fedavg", "rfedavg+"])
def test_zero_latency_async_and_regions(small_blocks, name, engine):
    """The buffered-event step and the regions step hand their cohorts to
    the same executor: stacked, they equal the per-client barrier run."""
    fed = _big()
    kwargs = {"lam": 1e-2} if name == "rfedavg+" else {}
    rounds = 4
    reference = _run(
        name, kwargs, fed, _model_fn(fed, "mlp"), _config(rounds=rounds, **engine),
        stacked=False,
    )
    stacked = _run(
        name, kwargs, fed, _model_fn(fed, "mlp"), _config(rounds=rounds, **engine),
        stacked=True,
    )
    _assert_same(reference, stacked)
    if "execution" in engine:
        barrier = _run(
            name, kwargs, fed, _model_fn(fed, "mlp"), _config(rounds=rounds), stacked=False
        )
        assert_equivalent_runs(barrier, stacked)


ALGORITHM_KWARGS = {
    "fedprox": {"mu": 0.1},
    "moon": {"mu": 0.5},
    "qfedavg": {"q": 1.0},
    "rfedavg": {"lam": 1e-2},
    "rfedavg+": {"lam": 1e-2},
    "rfedavg_exact": {"lam": 1e-2},
}
# No per-client hook overridden (rfedavg_exact: a pre-round refresh
# through the same block-aware second synchronization).
STACKING = {"fedavg", "rfedavg+", "rfedavg_exact"}


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_every_algorithm_is_unchanged_whether_or_not_it_stacks(small_blocks, name):
    fed = _big()
    kwargs = ALGORITHM_KWARGS.get(name, {})
    tracer = Tracer()
    reference = _run(name, kwargs, fed, _model_fn(fed, "mlp"), _config(rounds=2), stacked=False)
    stacked = _run(
        name, kwargs, fed, _model_fn(fed, "mlp"), _config(rounds=2), stacked=True,
        tracer=tracer,
    )
    _assert_same(reference, stacked)
    counters = _counters(tracer)
    if name in STACKING:
        assert counters["executor.stacked_clients"] == 2 * fed.num_clients
        assert not any(key.startswith("executor.cohort_unstacked") for key in counters)
    else:
        # Overrides a per-client hook without saying it takes a block.
        assert counters == {"executor.cohort_unstacked{reason=algorithm}": 2}


def test_the_stacking_algorithms_are_the_ones_the_docs_name():
    fed = _big()
    sizes = fed.client_sizes[:BLOCK]
    for name in sorted(ALGORITHMS):
        algorithm = make_algorithm(name, **ALGORITHM_KWARGS.get(name, {}))
        algorithm.setup(_model_fn(fed, "mlp")(), fed, _config())
        assert (algorithm.stack_refusal(sizes) is None) == (name in STACKING), name


# -- fallbacks are events with a reason ----------------------------------------------


def test_each_refusal_is_counted_once_a_round_with_its_reason(small_blocks):
    rounds = 3

    def counters(fed, model_fn, name="fedavg", **kwargs):
        tracer = Tracer()
        _run(name, kwargs, fed, model_fn, _config(rounds=rounds), stacked=True, tracer=tracer)
        return _counters(tracer)

    fed = _big()
    # A bare Flatten() cannot tell sample axes from batch axes.
    assert counters(fed, tiny_model_fn(fed)) == {
        "executor.cohort_unstacked{reason=model}": rounds
    }
    assert counters(fed, _model_fn(fed, "mlp"), "fedprox", mu=0.1) == {
        "executor.cohort_unstacked{reason=algorithm}": rounds
    }
    # One block of the three refuses; the other two stack (the ninth
    # client is a block of one: nothing to stack, nothing refused).
    for cohort, reason in (
        ("ragged_in_the_middle", "ragged"), ("shorter_than_the_batch", "short_shard")
    ):
        fed = _federation(cohort, "eager")
        assert counters(fed, _model_fn(fed, "mlp")) == {
            "executor.stacked_blocks": rounds,
            "executor.stacked_clients": rounds * BLOCK,
            f"executor.cohort_unstacked{{reason={reason}}}": rounds,
        }
    # A cohort of one is not a fallback.
    fed = _federation("one", "eager")
    assert counters(fed, _model_fn(fed, "mlp")) == {}
    # The CNN of the other workloads: refused for the model, every round.
    toy = make_toy_federation(similarity=0.0)
    cnn = lambda: build_model("cnn", toy.spec, seed=0, scale=0.25)  # noqa: E731
    assert counters(toy, cnn) == {"executor.cohort_unstacked{reason=model}": rounds}


def test_block_time_is_shared_out_and_spans_stay_per_client(small_blocks):
    fed = _big()
    tracer = Tracer()
    seen = []

    class Recording(SerialExecutor):
        def stream(self, algorithm, round_idx, regions):
            seen.append([])
            for group, update in super().stream(algorithm, round_idx, regions):
                seen[-1].append((update, update.params))  # the round releases params
                yield group, update

    algorithm = make_algorithm("rfedavg+", lam=1e-2).with_executor(Recording())
    run_federated(algorithm, fed, _model_fn(fed, "mlp"), _config(rounds=2), tracer=tracer)
    assert len(seen) == 2
    for round_idx, received in enumerate(seen):
        updates = [update for update, _params in received]
        assert [u.client_id for u in updates] == list(range(fed.num_clients))
        blocks = [updates[i : i + BLOCK] for i in range(0, len(updates), BLOCK)]
        for block in blocks:
            # Block seconds / block size: one positive value, shared.
            assert len({u.train_seconds for u in block}) == 1
            assert block[0].train_seconds > 0
        spans = [
            child for child in tracer.roots[round_idx].children
            if child.name == "local_train"
        ]
        assert [s.attrs["client"] for s in spans] == [u.client_id for u in updates]
        assert [s.attrs["block"] for s in spans] == [len(b) for b in blocks for _ in b]
        assert [s.duration for s in spans] == [u.train_seconds for u in updates]
        # Rows of a block's arena, not copies of them.
        params = [params for _update, params in received]
        assert all(p.base is not None for p in params)
        assert len({id(p.base) for p in params[:BLOCK]}) == 1


def test_the_workspace_model_keeps_its_own_tensors_and_holds_nothing(small_blocks):
    fed = _big()
    algorithm = make_algorithm("rfedavg+", lam=1e-2)
    model_fn = _model_fn(fed, "mlp")
    shapes = [p.data.shape for p in model_fn().parameters()]
    run_federated(algorithm, fed, model_fn, _config(rounds=2, eval_every=5))
    model = algorithm.model
    assert [p.data.shape for p in model.parameters()] == shapes
    assert [p.grad.shape for p in model.parameters()] == shapes
    assert all(p.data.base is None and p.grad.base is None for p in model.parameters())
    assert _held_caches(model) == []
    assert model.training


# -- the workload this is for --------------------------------------------------------

# scale_virtual_stream (bench/workloads.py) at seed 7, cut to 3 rounds;
# every value recorded from the parent commit, which ran it per client.
PARENT = {
    "params_sha256": "eb3316b52ab1c74783e01cf3daf2113ee56a8726b7b8c269dd58e37af798a383",
    "spilled_rows": 44,
    "materializations": 300,
    "ledger": {"up": 28132800, "down": 56163200, "up:delta": 76800, "down:delta": 51200},
    "last_round": {
        "train_loss": 1.919743392128649,
        "reg_loss": 0.00046306618343474357,
        "test_loss": 2.397709371434475,
    },
}


def _scale_run(tmp_path, tag, *, stacked, rounds=3, tracer=None):
    seed = 7
    fed = presets.build_virtual_federation(
        seed=seed, population=100_000, samples_per_client=20
    )
    model_fn = presets.default_model_fn("mlp", fed.spec, seed=seed, scale=1.0)
    config = FLConfig(
        rounds=rounds, local_steps=2, batch_size=16, sample_ratio=0.001, eval_every=5,
        lr=0.1, sampler="reservoir", history_mode="stream", state_cap=256, seed=seed,
        stream_dir=os.path.join(tmp_path, tag, "stream"),
        state_dir=os.path.join(tmp_path, tag, "state"),
    )
    algorithm, history = _run(
        "rfedavg+", {"lam": 1e-3}, fed, model_fn, config, stacked=stacked, tracer=tracer
    )
    return algorithm, history, fed


def test_scale_virtual_stream_equals_the_parents_run(tmp_path):
    assert base.COHORT_BLOCK == 16  # the constant as shipped
    tracer = Tracer()
    algorithm, history, fed = _scale_run(tmp_path, "new", stacked=True, tracer=tracer)
    digest = hashlib.sha256(algorithm.global_params.tobytes()).hexdigest()
    assert digest == PARENT["params_sha256"]
    assert algorithm.delta_table.spilled_rows == PARENT["spilled_rows"]
    assert fed.clients.materializations == PARENT["materializations"]
    assert {
        key: int(algorithm.ledger.total(key)) for key in PARENT["ledger"]
    } == PARENT["ledger"]
    last = history.to_dict()["records"][-1]
    assert {key: last[key] for key in PARENT["last_round"]} == PARENT["last_round"]
    # 100 clients a round: six blocks of 16 and one of 4, nothing refused.
    assert _counters(tracer) == {
        "executor.stacked_blocks": 21, "executor.stacked_clients": 300,
    }


def test_a_stacked_round_allocates_no_more_than_a_few_blocks_over_per_client(tmp_path):
    """tracemalloc peak of 100-client rounds: the stacked path holds, on
    top of what the per-client path holds (the cohort's updates), one
    block's gradients and the temporaries of one stacked step — a few
    blocks of parameter vectors, never a cohort's worth."""
    peaks = {}
    for stacked in (False, True):
        tracemalloc.start()
        try:
            algorithm, _history, _fed = _scale_run(
                tmp_path, f"mem{stacked}", stacked=stacked, rounds=2
            )
            peaks[stacked] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    block_bytes = base.COHORT_BLOCK * algorithm.global_params.nbytes
    assert peaks[True] - peaks[False] <= 4 * block_bytes


def _round_peaks(monkeypatch, clients: int) -> tuple[list[int], int]:
    """tracemalloc peak above entry of every round of the bench's MLP on
    an eager ``clients``-client cohort (everyone, every round), and the
    bytes of one parameter vector."""
    from repro.fl import trainer

    peaks = []
    real = trainer.BarrierStep.run

    def traced_round(self, round_idx, cohort):
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = real(self, round_idx, cohort)
        peaks.append(tracemalloc.get_traced_memory()[1] - entry)
        return out

    monkeypatch.setattr(trainer.BarrierStep, "run", traced_round)
    fed = presets.build_virtual_federation(
        seed=7, population=clients, samples_per_client=20
    ).materialize()
    config = FLConfig(
        rounds=2, local_steps=2, batch_size=16, sample_ratio=1.0, eval_every=5, lr=0.1,
        seed=7,
    )
    algorithm = make_algorithm("rfedavg+", lam=1e-3)
    tracemalloc.start()
    try:
        run_federated(
            algorithm, fed, presets.default_model_fn("mlp", fed.spec, seed=7, scale=1.0),
            config,
        )
    finally:
        tracemalloc.stop()
    return peaks, algorithm.global_params.nbytes


def test_a_round_holds_a_block_of_updates_not_the_cohort(monkeypatch):
    """Each update is folded and let go as it is committed, so what a
    serial sync round of the bench's MLP holds above its entry is one
    stacked block's working set (its arena, gradients and a step's
    temporaries), under the cohort's update rows, and flat in the cohort
    size.  A round that keeps every update until one reduction at the
    end held 1.60x the rows of a 100-client cohort above its entry
    (14.98 MB, against 7.67 MB for the fold)."""
    assert base.COHORT_BLOCK == 16  # the constant as shipped
    peaks, row_bytes = _round_peaks(monkeypatch, 100)
    assert max(peaks) < 100 * row_bytes
    more, _ = _round_peaks(monkeypatch, 200)
    assert max(more) - max(peaks) < 25 * row_bytes
