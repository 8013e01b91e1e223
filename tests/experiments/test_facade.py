"""Tests for the repro.run_experiment facade."""

import inspect

import pytest

import repro
from repro.exceptions import ConfigError
from repro.experiments.facade import (
    RUN_PRESETS,
    list_presets,
    preset_federation,
    run_preset,
    with_overrides,
)
from repro.fl.metrics import History

TINY = {
    "rounds": 2, "local_steps": 1, "batch_size": 8, "eval_every": 1,
    "clients": 4, "num_train": 160, "num_test": 60, "scale": 0.25,
}


def test_presets_registered():
    names = [p.name for p in list_presets()]
    assert "quickstart" in names and "cifar-noniid" in names
    assert all(p.description for p in list_presets())


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError, match="unknown experiment"):
        repro.run_experiment("nope")


def resolve_preset(name, overrides):
    return with_overrides(RUN_PRESETS[name], overrides)


def test_override_routing():
    preset = resolve_preset("quickstart", {"rounds": 5, "clients": 3, "lam": 0.5})
    assert preset.clients == 3  # preset field
    assert preset.config["rounds"] == 5  # FLConfig field
    assert preset.config["lr"] == 0.5  # the preset's own config stays
    assert preset.algorithm_kwargs == {"lam": 0.5}  # wins over the preset's


def test_switching_algorithm_drops_preset_specific_kwargs():
    preset = resolve_preset("quickstart", {"algorithm": "fedavg"})
    assert preset.algorithm == "fedavg"
    assert "lam" not in preset.algorithm_kwargs  # rfedavg+'s lam must not leak
    preset = resolve_preset("quickstart", {"algorithm": "fedprox", "mu": 0.1})
    assert preset.algorithm_kwargs == {"mu": 0.1}


def test_config_shorthands_are_gone():
    """Config fields have one spelling, an ``overrides`` key; the old
    keyword shorthands are unknown arguments like any other."""
    assert set(inspect.signature(repro.run_experiment).parameters) == {
        "name", "seed", "overrides", "callbacks", "trace", "artifacts_dir"
    }
    for shorthand in (
        "workers", "execution", "runtime", "buffer_size", "staleness_exponent",
        "checkpoint_dir", "checkpoint_every", "resume", "compression",
        "sync_compression", "error_feedback", "topology", "cloud_compression",
        "serve_addr",
    ):
        with pytest.raises(TypeError, match=shorthand):
            repro.run_experiment("quickstart", overrides=TINY, **{shorthand: None})


def test_iid_override_on_an_image_preset_is_similarity_one():
    iid = preset_federation(resolve_preset("quickstart", {**TINY, "iid": True}), 0)
    sim = preset_federation(
        resolve_preset("quickstart", {**TINY, "similarity": 1.0}), 0
    )
    non_iid = preset_federation(resolve_preset("quickstart", TINY), 0)
    assert [c.y.tolist() for c in iid.clients] == [c.y.tolist() for c in sim.clients]
    assert [c.x.tobytes() for c in iid.clients] == [c.x.tobytes() for c in sim.clients]
    assert [c.y.tolist() for c in iid.clients] != [
        c.y.tolist() for c in non_iid.clients
    ]


def test_unknown_override_key_is_a_config_error():
    with pytest.raises(ConfigError, match="bogus_knob"):
        repro.run_experiment("quickstart", overrides={**TINY, "bogus_knob": 3})


def test_run_experiment_returns_history(tmp_path):
    history, artifacts = repro.run_experiment("quickstart", seed=1, overrides=TINY)
    assert isinstance(history, History)
    assert len(history.records) == 2
    assert artifacts is None  # nothing persisted by default


def test_run_preset_eval_per_client():
    preset = resolve_preset("quickstart", TINY)
    history, _ = run_preset(preset, seed=1, eval_per_client=True)
    assert len(history.per_client_accuracy) == preset.clients
    assert run_preset(preset, seed=1)[0].per_client_accuracy is None


def test_run_experiment_same_seed_reproduces():
    hist_a, _ = repro.run_experiment("quickstart", seed=2, overrides=TINY)
    hist_b, _ = repro.run_experiment("quickstart", seed=2, overrides=TINY)
    # wall_time_sec is the only nondeterministic field.
    assert hist_a.train_losses().tolist() == hist_b.train_losses().tolist()
    assert hist_a.final_accuracy == hist_b.final_accuracy
    assert [r.bytes_down for r in hist_a.records] == [
        r.bytes_down for r in hist_b.records
    ]


def test_run_experiment_traced_artifacts(tmp_path):
    out = tmp_path / "artifacts"
    history, artifacts = repro.run_experiment(
        "quickstart", seed=1, overrides=TINY, trace=True, artifacts_dir=out
    )
    assert artifacts == out
    assert {p.name for p in out.iterdir()} == {
        "summary.json", "rounds.csv", "events.jsonl"
    }
    reloaded = History.from_json((out / "summary.json").read_text())
    assert reloaded.to_dict() == history.to_dict()


def test_run_experiment_callbacks_forwarded():
    seen = []
    repro.run_experiment(
        "quickstart", seed=1, overrides=TINY,
        callbacks=[lambda rec: seen.append(rec.round_idx)],
    )
    assert seen == [0, 1]


def test_run_experiment_switches_algorithm():
    history, _ = repro.run_experiment(
        "quickstart", seed=1, overrides={**TINY, "algorithm": "fedavg"}
    )
    assert history.algorithm == "fedavg"


def test_top_level_lazy_exports():
    assert repro.run_experiment is not None
    assert callable(repro.list_presets)
    with pytest.raises(AttributeError):
        repro.does_not_exist


def test_run_experiment_checkpoints_and_resumes(tmp_path):
    ckpt = tmp_path / "ckpt"
    baseline, _ = repro.run_experiment(
        "quickstart", seed=3, overrides={**TINY, "checkpoint_dir": str(ckpt)}
    )
    assert list(ckpt.glob("ckpt-*.rck"))
    # Lose the newest checkpoint (as a crash between rounds would) and
    # resume: the replayed round must reproduce the baseline exactly.
    (ckpt / "ckpt-00000001.rck").unlink()
    resumed, _ = repro.run_experiment(
        "quickstart", seed=3,
        overrides={**TINY, "checkpoint_dir": str(ckpt), "resume": True},
    )
    assert resumed.train_losses().tolist() == baseline.train_losses().tolist()
    assert resumed.final_accuracy == baseline.final_accuracy
    assert [r.bytes_up for r in resumed.records] == [
        r.bytes_up for r in baseline.records
    ]


def test_run_experiment_artifacts_carry_provenance(tmp_path):
    import json

    out = tmp_path / "artifacts"
    repro.run_experiment(
        "quickstart", seed=1, overrides=TINY, trace=True, artifacts_dir=out
    )
    prov = json.loads((out / "summary.json").read_text())["provenance"]
    assert prov["seed"] == 1
    assert {"repro_version", "config_hash", "algorithm", "dtype"} <= set(prov)
