"""The one round loop in ``repro.fl.trainer``, exercised once over all
three round steps.

Everything here is a property of the *driver* — the record it builds,
its eval / checkpoint / callback cadence, how it unwinds, what it
refuses to resume — so every case runs over the barrier step
(``flat``), the regions step (``hier:1:1``, ``hier:2:2``) and the
buffered-event step (zero-latency ``async``, straggling ``buffered``).
The per-engine bit-identity matrices live in ``test_*_equivalence.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import make_algorithm
from repro.ckpt.format import read_checkpoint, write_checkpoint
from repro.exceptions import CheckpointError
from repro.fl.config import FLConfig
from repro.fl.faults import FaultModel
from repro.fl.metrics import History
from repro.fl.parallel import SerialExecutor
from repro.fl.trainer import run_federated
from tests.conftest import make_toy_federation
from tests.helpers import assert_equivalent_runs, tiny_model_fn

# The three engines that are bit-identical by the house invariant ...
IDENTICAL = {
    "flat": {},
    "hier:1:1": {"topology": "hier:1:1"},
    "async": {"execution": "async"},
}
# ... and two that are not, for assertions that hold for any engine.
ENGINES = {
    **IDENTICAL,
    "hier:2:2": {"topology": "hier:2:2"},
    "buffered": {
        "execution": "async", "buffer_size": 2,
        "runtime": "gaussian:het=1.5,std=0.2",
    },
}
# The checkpoint section each stateful step owns.
SECTIONS = {"hier:1:1": "hierarchy", "hier:2:2": "hierarchy",
            "async": "async", "buffered": "async"}


def _config(engine: str, **overrides) -> FLConfig:
    base = dict(rounds=5, local_steps=1, batch_size=8, lr=0.1, seed=4)
    base.update(ENGINES[engine])
    base.update(overrides)
    return FLConfig(**base)


def _run(fed, config, decorate=None, **kwargs):
    algorithm = make_algorithm("fedavg")
    if decorate is not None:
        decorate(algorithm)
    history = run_federated(algorithm, fed, tiny_model_fn(fed), config, **kwargs)
    return algorithm, history


def _comparable(history: History) -> dict:
    data = history.to_dict()
    for record in data["records"]:
        del record["wall_time_sec"]
    return data


@pytest.fixture(scope="module")
def fed():
    return make_toy_federation(similarity=0.0)


# -- (a) one record definition ----------------------------------------------------------


def test_history_identical_across_engines_under_dropout():
    """``num_selected`` is the cohort the step dispatched — after fault
    dropout — under every engine, so the whole ``History`` (not only
    the model and the byte ledger) is engine-independent."""
    fed = make_toy_federation(similarity=0.0, num_clients=10)
    runs = {
        engine: _run(
            fed, _config(engine, rounds=4),
            decorate=lambda alg: alg.with_faults(FaultModel(dropout_prob=0.5)),
        )
        for engine in IDENTICAL
    }
    flat_algorithm, flat_history = runs["flat"]
    dispatched = [r.num_selected for r in flat_history.records]
    assert all(1 <= n <= 10 for n in dispatched) and min(dispatched) < 10
    assert flat_algorithm.fault_model.dropped_total == 40 - sum(dispatched)
    for engine in ("hier:1:1", "async"):
        assert_equivalent_runs(runs["flat"], runs[engine])
        assert _comparable(runs[engine][1]) == _comparable(flat_history)


# -- (b) cadence ------------------------------------------------------------------------


@pytest.mark.parametrize("engine", ENGINES)
def test_eval_checkpoint_and_callback_cadence(fed, tmp_path, monkeypatch, engine):
    events = []
    append = History.append

    def logged_append(self, record):
        append(self, record)
        events.append(("append", record.round_idx))

    monkeypatch.setattr(History, "append", logged_append)
    config = _config(
        engine, eval_every=2, checkpoint_every=2,
        checkpoint_dir=str(tmp_path), checkpoint_keep=50,
    )
    _algorithm, history = _run(
        fed, config,
        callbacks=[
            lambda record: events.append(("first", record.round_idx)),
            lambda record: events.append(("second", record.round_idx)),
        ],
    )
    # Eval on round % eval_every == 0 and on the last round.
    evaluated = [r.round_idx for r in history.records if r.test_accuracy is not None]
    assert evaluated == [0, 2, 4]
    assert all(
        (r.test_loss is None) == (r.test_accuracy is None) for r in history.records
    )
    assert history.final_accuracy == history.records[-1].test_accuracy
    # Checkpoints on (round + 1) % checkpoint_every == 0 and the last round.
    saved = sorted(int(p.stem.split("-")[1]) for p in tmp_path.glob("ckpt-*.rck"))
    assert saved == [1, 3, 4]
    # Callbacks see every record, in order, after it joined the history.
    assert events == [
        (who, round_idx)
        for round_idx in range(5)
        for who in ("append", "first", "second")
    ]
    assert all(r.wall_time_sec > 0 for r in history.records)


# -- (c) unwinding and resume -----------------------------------------------------------


class _ClosingExecutor(SerialExecutor):
    def __init__(self) -> None:
        self.closed = 0

    def close(self) -> None:
        self.closed += 1


class _Abort(Exception):
    pass


@pytest.mark.parametrize("engine", ENGINES)
def test_callback_exception_propagates_and_resume_completes(fed, tmp_path, engine):
    """What ``bench/workloads.py``'s ``_Abort`` does: a callback raises
    mid-run; the exception leaves ``run_federated`` with the executor
    closed, and a ``resume=True`` run finishes where an uninterrupted
    one would."""
    baseline = _run(fed, _config(engine))
    config = _config(engine, checkpoint_dir=str(tmp_path), checkpoint_every=1)

    def abort_after_two(record):
        if record.round_idx == 2:
            raise _Abort

    executor = _ClosingExecutor()
    with pytest.raises(_Abort):
        _run(
            fed, config, callbacks=[abort_after_two],
            decorate=lambda alg: alg.with_executor(executor),
        )
    assert executor.closed == 1
    # The raising callback ran before round 2's checkpoint was written.
    assert sorted(p.name for p in tmp_path.glob("ckpt-*.rck")) == [
        "ckpt-00000000.rck", "ckpt-00000001.rck",
    ]
    resumed = _run(fed, config.with_updates(resume=True))
    assert_equivalent_runs(baseline, resumed)
    assert _comparable(resumed[1]) == _comparable(baseline[1])
    if "execution" in ENGINES[engine]:
        assert (
            resumed[1].async_history.to_dict() == baseline[1].async_history.to_dict()
        )


# -- (d) one refusal --------------------------------------------------------------------


@pytest.mark.parametrize("engine", SECTIONS)
def test_resume_without_the_steps_section_is_refused(fed, tmp_path, engine):
    config = _config(engine, rounds=3, checkpoint_dir=str(tmp_path))
    _run(fed, config)
    newest = max(tmp_path.glob("ckpt-*.rck"))
    manifest, sections = read_checkpoint(newest)
    del sections[SECTIONS[engine]]
    write_checkpoint(newest, manifest["meta"], sections)
    with pytest.raises(CheckpointError, match=SECTIONS[engine]):
        _run(fed, config.with_updates(resume=True))


def test_finished_run_resumes_to_the_same_history(fed, tmp_path):
    """Resuming a run that already completed re-enters no round."""
    config = _config("buffered", checkpoint_dir=str(tmp_path))
    finished = _run(fed, config)
    again = _run(
        fed, config.with_updates(resume=True),
        callbacks=[lambda record: pytest.fail("a finished run ran a round")],
    )
    np.testing.assert_array_equal(finished[0].global_params, again[0].global_params)
    assert _comparable(again[1]) == _comparable(finished[1])
    assert again[1].async_history.to_dict() == finished[1].async_history.to_dict()
