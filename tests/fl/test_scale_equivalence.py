"""Scale-out correctness gates: the cross-device machinery (virtual
clients, spilling per-client tables, streaming histories) must change
*where bytes live*, never *what they are*.

Every knob here is execution-only by contract, so at small N each one
must reproduce the eager/uncapped/appending run bit-for-bit — including
across a crash/resume with all three engaged at once.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import make_algorithm
from repro.ckpt.format import pack_tree, read_checkpoint, unpack_tree, write_checkpoint
from repro.ckpt.state import SECTION_ALGORITHM
from repro.core.delta import DeltaTable
from repro.data import make_virtual_federation
from repro.exceptions import ConfigError
from repro.fl.config import FLConfig
from repro.fl.metrics import StreamingHistory
from tests.helpers import assert_equivalent_runs, run_with_workers, tiny_model_fn

ROUNDS = 5


def _config(**overrides) -> FLConfig:
    base = dict(
        rounds=ROUNDS, local_steps=2, batch_size=8, lr=0.1, seed=41,
        sample_ratio=0.5, eval_every=2,
    )
    base.update(overrides)
    return FLConfig(**base)


@pytest.fixture(scope="module")
def virt():
    return make_virtual_federation(
        12, seed=5, similarity=0.2, samples_per_client=16, size_sigma=0.4,
        max_live=4,
    )


@pytest.fixture(scope="module")
def eager(virt):
    return virt.materialize()


# -- virtual vs eager ---------------------------------------------------------------


@pytest.mark.parametrize(
    "name,kwargs",
    [("fedavg", {}), ("rfedavg+", {"lam": 1e-3}), ("scaffold", {})],
    ids=["fedavg", "rfedavg+", "scaffold"],
)
def test_virtual_population_matches_eager_bitwise(virt, eager, name, kwargs):
    config = _config()
    lazy = run_with_workers(name, kwargs, virt, config, num_workers=1)
    dense = run_with_workers(name, kwargs, eager, config, num_workers=1)
    assert_equivalent_runs(dense, lazy)
    # The virtual run never held more than max_live shards.
    assert virt.clients.live_clients == 0  # released after the final round


@pytest.mark.parametrize("sampler", ["reservoir"])
def test_virtual_matches_eager_under_scale_samplers(virt, eager, sampler):
    """The reservoir sampler sees only (population, ratio, rng) — identical
    cohorts either way, so identical runs."""
    config = _config(sampler=sampler)
    lazy = run_with_workers("fedavg", {}, virt, config, num_workers=1)
    dense = run_with_workers("fedavg", {}, eager, config, num_workers=1)
    assert_equivalent_runs(dense, lazy)


# -- spilling vs uncapped server state ----------------------------------------------


@pytest.mark.parametrize("name", ["rfedavg", "rfedavg+"])
def test_sharded_table_matches_dense_bitwise(eager, name):
    """Rows spilled past a cap of 2 ("sharded") against every row
    resident ("dense"): the same run, bit for bit."""
    kwargs = {"lam": 1e-3}
    uncapped = run_with_workers(name, kwargs, eager, _config(), num_workers=1)
    spilling = run_with_workers(
        name, kwargs, eager, _config(state_cap=2), num_workers=1
    )
    assert_equivalent_runs(uncapped, spilling)
    assert uncapped[0].delta_table.spilled_rows == 0
    assert spilling[0].delta_table.spilled_rows > 0  # the cap actually bit


def test_two_spilling_tables_share_one_state_dir(eager, tmp_path):
    """Error feedback plus a delta table, both over ``state_cap``, both
    told the same ``state_dir``: each spills to a file of its own, so
    the run is the one whose tables spill to private temp directories."""
    overrides = dict(
        compression="topk:0.05|qsgd:8", state_cap=2,
    )
    kwargs = {"lam": 1e-3}
    private = run_with_workers(
        "rfedavg+", kwargs, eager, _config(**overrides), num_workers=1
    )
    shared = run_with_workers(
        "rfedavg+", kwargs, eager,
        _config(state_dir=str(tmp_path / "state"), **overrides), num_workers=1,
    )
    assert_equivalent_runs(private, shared)
    for algorithm in (private[0], shared[0]):
        assert algorithm.delta_table.spilled_rows > 0
        assert algorithm._residuals.spilled_rows > 0
    assert shared[0].delta_table._spill.path != shared[0]._residuals._spill.path


def test_every_population_gets_the_one_table(virt, eager):
    """Eager or virtual, small or large: one table class, under the
    run's row cap, allocating nothing until a client reports."""
    model = tiny_model_fn(eager)()
    big = make_virtual_federation(100_000, seed=0)
    for fed, cap in ((eager, None), (virt, None), (big, 3)):
        algorithm = make_algorithm("rfedavg+", lam=1e-3)
        algorithm.setup(model, fed, _config(state_cap=cap))
        table = algorithm.delta_table
        assert type(table) is DeltaTable
        assert table.num_clients == fed.num_clients and table.max_resident == cap
        assert table.resident_rows == 0


# -- crash/resume with everything engaged -------------------------------------------


def _scale_config(tmp_path, tag, **overrides):
    return _config(
        state_cap=2,
        history_mode="stream",
        stream_dir=str(tmp_path / f"stream-{tag}"),
        **overrides,
    )


def _timeless(summary: dict) -> dict:
    summary = dict(summary)
    summary.pop("sum_wall_time", None)
    last = summary.get("last_record")
    if last is not None:
        last = dict(last)
        last.pop("wall_time_sec", None)
        summary["last_record"] = last
    return summary


def _assert_same_streaming_run(baseline, resumed):
    alg_a, hist_a = baseline
    alg_b, hist_b = resumed
    assert isinstance(hist_a, StreamingHistory)
    np.testing.assert_array_equal(alg_a.global_params, alg_b.global_params)
    assert _timeless(hist_a.summary_dict()) == _timeless(hist_b.summary_dict())
    np.testing.assert_array_equal(hist_a.accuracies(), hist_b.accuracies())
    np.testing.assert_array_equal(hist_a.train_losses(), hist_b.train_losses())
    assert alg_a.ledger.total() == alg_b.ledger.total()


def test_crash_resume_with_virtual_sharded_streaming(virt, tmp_path):
    """The full scale stack — lazy clients, spilling table, streaming
    history — survives a crash bit-identically."""
    kwargs = {"lam": 1e-3}
    baseline = run_with_workers(
        "rfedavg+", kwargs, virt, _scale_config(tmp_path, "base"), num_workers=1
    )
    ckpt_dir = tmp_path / "ckpt"
    crashed_config = _scale_config(
        tmp_path, "crash", checkpoint_dir=str(ckpt_dir), checkpoint_keep=50
    )
    run_with_workers("rfedavg+", kwargs, virt, crashed_config, num_workers=1)
    removed = 0
    for round_idx in range(2, ROUNDS):
        path = ckpt_dir / f"ckpt-{round_idx:08d}.rck"
        if path.exists():
            path.unlink()
            removed += 1
    assert removed > 0
    resumed = run_with_workers(
        "rfedavg+", kwargs, virt,
        crashed_config.with_updates(resume=True), num_workers=1,
    )
    _assert_same_streaming_run(baseline, resumed)
    # The resumed spool was truncated back to the checkpoint round and
    # then re-extended — it must hold exactly ROUNDS records, once each.
    rounds = resumed[1].rounds()
    np.testing.assert_array_equal(rounds, np.arange(ROUNDS))


def test_streaming_run_matches_appending_run(virt, tmp_path):
    """history_mode is execution-only: the streaming run's spool replays
    the appending run's series exactly."""
    kwargs = {"lam": 1e-3}
    appending = run_with_workers(
        "rfedavg+", kwargs, virt, _config(), num_workers=1
    )
    streaming = run_with_workers(
        "rfedavg+", kwargs, virt,
        _config(history_mode="stream", stream_dir=str(tmp_path / "s")),
        num_workers=1,
    )
    np.testing.assert_array_equal(
        appending[0].global_params, streaming[0].global_params
    )
    np.testing.assert_array_equal(
        streaming[1].accuracies(), appending[1].accuracies()
    )
    np.testing.assert_array_equal(
        streaming[1].train_losses(), appending[1].train_losses()
    )
    assert streaming[1].total_bytes() == appending[1].total_bytes()


def test_cross_layout_resume(virt, tmp_path, monkeypatch):
    """A checkpoint holding the delta table in its old dense form
    (``delta_table`` = the (N, d) array) still restores — into a capped,
    spilling table — and the resumed run matches the baseline."""
    kwargs = {"lam": 1e-3}
    baseline = run_with_workers("rfedavg+", kwargs, virt, _config(), num_workers=1)
    ckpt_dir = tmp_path / "ckpt"
    config = _config(checkpoint_dir=str(ckpt_dir), checkpoint_keep=50)
    run_with_workers("rfedavg+", kwargs, virt, config, num_workers=1)
    kept = ckpt_dir / "ckpt-00000001.rck"
    for path in ckpt_dir.glob("ckpt-*.rck"):
        if path != kept:
            path.unlink()
    manifest, sections = read_checkpoint(kept)
    state = unpack_tree(sections[SECTION_ALGORITHM])
    rows = state.pop("delta_rows")
    table = np.zeros((virt.num_clients, rows.shape[1]))
    table[state.pop("delta_ids")] = rows
    state["delta_table"] = table
    sections[SECTION_ALGORITHM] = pack_tree(state)
    write_checkpoint(kept, manifest["meta"], sections)
    forms = []
    restore = DeltaTable.restore_checkpoint_segments

    def spy(table, segments):
        forms.append(sorted(k for k in segments if k.startswith("delta_")))
        restore(table, segments)

    monkeypatch.setattr(DeltaTable, "restore_checkpoint_segments", spy)
    resumed = run_with_workers(
        "rfedavg+", kwargs, virt,
        config.with_updates(resume=True, state_cap=2), num_workers=1,
    )
    assert_equivalent_runs(baseline, resumed)
    assert forms == [["delta_reported", "delta_table"]]
    assert resumed[0].delta_table.spilled_rows > 0


# -- guard rails --------------------------------------------------------------------


def test_rfedavg_exact_refuses_cross_device_populations():
    fed = make_virtual_federation(200_000, seed=0)
    config = _config(sample_ratio=0.0001, rounds=1, sampler="reservoir")
    with pytest.raises(ConfigError, match="rfedavg_exact"):
        run_with_workers("rfedavg_exact", {"lam": 1e-3}, fed, config, num_workers=1)
