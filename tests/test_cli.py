"""CLI tests."""

import pytest

from repro.cli import main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "rfedavg+" in out
    assert "synth_cifar" in out


def test_experiments_command(capsys):
    assert main(["experiments"]) == 0
    out = capsys.readouterr().out
    assert "Table I" in out
    assert "Fig. 12" in out


def test_run_command_minimal(capsys):
    code = main([
        "run", "--dataset", "synth_mnist", "--algorithm", "fedavg",
        "--clients", "4", "--rounds", "2", "--local-steps", "1",
        "--batch-size", "8", "--eval-every", "1", "--scale", "0.25",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "final accuracy" in out
    assert "total traffic" in out


def test_run_command_regularized(capsys):
    code = main([
        "run", "--dataset", "synth_mnist", "--algorithm", "rfedavg+",
        "--clients", "4", "--rounds", "2", "--local-steps", "1",
        "--batch-size", "8", "--lam", "0.001", "--scale", "0.25",
    ])
    assert code == 0


def test_run_command_sequence_dataset_defaults_to_lstm(capsys):
    code = main([
        "run", "--dataset", "synth_sent140", "--algorithm", "fedavg",
        "--clients", "4", "--rounds", "1", "--local-steps", "1",
        "--batch-size", "4", "--optimizer", "rmsprop", "--lr", "0.01",
        "--scale", "0.1",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "final accuracy" in out


def test_run_command_trace_prints_phase_table(capsys):
    code = main([
        "run", "--dataset", "synth_mnist", "--algorithm", "fedavg",
        "--clients", "4", "--rounds", "2", "--local-steps", "1",
        "--batch-size", "8", "--eval-every", "1", "--scale", "0.25",
        "--trace",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "train_loss" in out  # per-round table
    assert "local_train" in out  # span summary
    assert "aggregate" in out


def test_run_command_trace_out_writes_artifacts(capsys, tmp_path):
    import json

    from repro.fl.metrics import History

    code = main([
        "run", "--dataset", "synth_mnist", "--algorithm", "fedavg",
        "--clients", "4", "--rounds", "2", "--local-steps", "1",
        "--batch-size", "8", "--eval-every", "1", "--scale", "0.25",
        "--trace-out", str(tmp_path),
    ])
    assert code == 0
    out_dir = tmp_path / "fedavg-synth_mnist-seed0"
    assert {p.name for p in out_dir.iterdir()} == {
        "summary.json", "rounds.csv", "events.jsonl"
    }
    events = [json.loads(l) for l in (out_dir / "events.jsonl").open()]
    span_names = {e["name"] for e in events if e["type"] == "span"}
    assert {"round", "sample", "local_train", "aggregate", "eval"} <= span_names
    counters = {e["key"] for e in events if e["type"] == "counter"}
    assert "comm.bytes{direction=down}" in counters
    history = History.from_json((out_dir / "summary.json").read_text())
    assert len(history.records) == 2


def _run_args(extra):
    return [
        "run", "--dataset", "synth_mnist", "--algorithm", "fedavg",
        "--clients", "4", "--rounds", "2", "--local-steps", "1",
        "--batch-size", "8", "--scale", "0.25", *extra,
    ]


def test_run_command_checkpoints_and_resumes(capsys, tmp_path):
    ckpt = tmp_path / "ckpt"
    assert main(_run_args(["--checkpoint-dir", str(ckpt)])) == 0
    first = capsys.readouterr().out
    assert sorted(p.name for p in ckpt.glob("ckpt-*.rck"))
    # Crash simulation: the newest checkpoint vanishes, resume replays
    # the lost round and lands on the same numbers.
    (ckpt / "ckpt-00000001.rck").unlink()
    assert main(_run_args(["--checkpoint-dir", str(ckpt), "--resume"])) == 0
    second = capsys.readouterr().out

    def final_accuracy(out):
        return [l for l in out.splitlines() if "final accuracy" in l]

    assert final_accuracy(first) == final_accuracy(second)


@pytest.mark.parametrize(
    "command,changed",
    [
        (["run", "--dataset", "synth_mnist", "--local-steps", "1", "--batch-size", "8"],
         ["--rounds", "3"]),
        (["sweep", "--knob", "lam", "--values", "0,0.001"], ["--rounds", "3", "--lr", "0.05"]),
    ],
    ids=["run", "sweep"],
)
def test_refused_resume_exits_without_a_traceback(capsys, tmp_path, command, changed):
    """--resume over a directory another job wrote exits non-zero with
    the mismatch, not a CheckpointMismatchError traceback."""
    args = [*command, "--clients", "4", "--rounds", "2", "--scale", "0.25",
            "--checkpoint-dir", str(tmp_path / "ck"), "--resume"]
    assert main(args) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as excinfo:
        main([*args, *changed])
    message = str(excinfo.value.code)
    assert message.startswith("repro: refusing to resume: ")
    assert message.count("refusing to resume") == 1
    assert "config_hash" in message


def test_resume_under_another_lambda_is_refused(capsys, tmp_path):
    """λ lives on the algorithm, not in the config hash: a crashed
    rfedavg+ run resumed with another --lam must be refused by name
    instead of finishing as a two-λ hybrid."""
    ckpt = tmp_path / "ck"
    args = ["run", "--dataset", "synth_mnist", "--algorithm", "rfedavg+",
            "--clients", "4", "--rounds", "3", "--local-steps", "1",
            "--batch-size", "8", "--scale", "0.25", "--resume",
            "--checkpoint-dir", str(ckpt)]
    assert main([*args, "--lam", "0.001"]) == 0
    capsys.readouterr()
    (ckpt / "ckpt-00000002.rck").unlink()
    with pytest.raises(SystemExit) as excinfo:
        main([*args, "--lam", "10"])
    message = str(excinfo.value.code)
    assert message.startswith("repro: refusing to resume: ")
    assert "hyperparameters.lam: checkpoint=0.001 run=10.0" in message
    assert "config_hash" not in message
    assert main([*args, "--lam", "0.001"]) == 0  # the original λ still resumes


def test_run_command_checkpoint_cadence(tmp_path):
    ckpt = tmp_path / "ckpt"
    args = _run_args(["--checkpoint-dir", str(ckpt), "--checkpoint-every", "2"])
    args[args.index("--rounds") + 1] = "3"
    assert main(args) == 0
    # Rounds 2 (cadence) and 3 (final) checkpoint; round 1 does not.
    assert sorted(p.name for p in ckpt.glob("ckpt-*.rck")) == [
        "ckpt-00000001.rck", "ckpt-00000002.rck"
    ]


def test_run_command_resume_requires_checkpoint_dir():
    with pytest.raises(SystemExit):
        main(_run_args(["--resume"]))


def test_summary_artifact_carries_provenance(tmp_path):
    import json

    assert main(_run_args(["--trace-out", str(tmp_path)])) == 0
    summary = json.loads(
        (tmp_path / "fedavg-synth_mnist-seed0" / "summary.json").read_text()
    )
    prov = summary["provenance"]
    assert prov["algorithm"] == "fedavg"
    assert set(prov) >= {"repro_version", "config_hash", "seed", "dtype"}


def test_preset_command(capsys):
    code = main([
        "preset", "quickstart", "--seed", "1",
        "--set", "rounds=2", "--set", "local_steps=1", "--set", "clients=4",
        "--set", "num_train=160", "--set", "num_test=60",
        "--set", "scale=0.25", "--set", "batch_size=8",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "final accuracy" in out


def test_preset_command_bad_override_rejected():
    with pytest.raises(SystemExit, match="KEY=VALUE"):
        main(["preset", "quickstart", "--set", "rounds"])


def test_preset_unknown_name_rejected():
    with pytest.raises(SystemExit):
        main(["preset", "not-a-preset"])


@pytest.mark.parametrize("name", ["magic", "fednova", "fedavgm"])
def test_unknown_algorithm_rejected(capsys, name):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--algorithm", name])
    assert excinfo.value.code == 2
    assert f"invalid choice: '{name}'" in capsys.readouterr().err


def test_unknown_model_rejected():
    with pytest.raises(SystemExit, match="unknown model 'gru'"):
        main(["run", "--dataset", "synth_sent140", "--model", "gru",
              "--clients", "2", "--rounds", "1", "--scale", "0.25"])


@pytest.mark.parametrize(
    "argv,suggestion",
    [
        (["run", "--compression", "topk:0.1|qsdg:8"], "did you mean 'qsgd'?"),
        (["preset", "quickstart", "--set", "compression=top:0.1"], "did you mean 'topk'?"),
        (["preset", "quickstart", "--set", "bogus=1"], "unexpected keyword argument 'bogus'"),
    ],
    ids=["run", "preset", "preset-algorithm-kwarg"],
)
def test_refused_knob_exits_before_the_banner(capsys, argv, suggestion):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert suggestion in str(excinfo.value.code)
    assert capsys.readouterr().out == ""


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_sweep_algorithm_param(capsys):
    code = main([
        "sweep", "--dataset", "synth_mnist", "--algorithm", "rfedavg+",
        "--knob", "lam", "--values", "0,0.001",
        "--clients", "4", "--rounds", "2", "--scale", "0.25",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "best: lam=" in out
    assert "accuracy" in out


def test_sweep_config_field(capsys):
    code = main([
        "sweep", "--dataset", "synth_mnist", "--algorithm", "fedavg",
        "--knob", "local_steps", "--values", "1,2",
        "--clients", "4", "--rounds", "2", "--scale", "0.25",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "local_steps" in out


@pytest.mark.parametrize(
    "flags",
    [["--knob", "bogus"], ["--knob", "lam", "--algorithm", "fedavg"]],
    ids=["unknown-knob", "knob-of-another-algorithm"],
)
def test_sweep_bad_knob_exits_cleanly(capsys, flags):
    """A knob no preset field, config field or algorithm kwarg takes is
    refused like ``repro preset --set bogus=1``, before any cell runs."""
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", *flags, "--values", "1,2", "--rounds", "1"])
    assert str(excinfo.value.code).startswith("repro: bad overrides for algorithm")
    assert capsys.readouterr().out == ""


def test_sweep_bad_values_rejected():
    with pytest.raises(SystemExit):
        main([
            "sweep", "--knob", "lam", "--values", "a,b",
            "--clients", "4", "--rounds", "1",
        ])


def _without_wall_times(history):
    out = history.to_dict()
    for record in out["records"]:
        record.pop("wall_time_sec")
    return out


def test_run_command_is_run_preset_of_its_flags(monkeypatch):
    import repro.cli as cli
    from repro.experiments.facade import RunPreset, run_preset

    histories = []

    def recording_run_preset(preset, **kwargs):
        history, artifacts = run_preset(preset, **kwargs)
        histories.append(history)
        return history, artifacts

    monkeypatch.setattr(cli, "run_preset", recording_run_preset)
    assert main([
        "run", "--dataset", "synth_mnist", "--algorithm", "fedprox",
        "--mu", "0.5", "--iid", "--clients", "4", "--rounds", "2",
        "--local-steps", "1", "--batch-size", "8", "--scale", "0.25",
        "--workers", "2", "--no-error-feedback", "--compression", "topk:0.25",
    ]) == 0
    expected, _ = run_preset(
        RunPreset(
            "fedprox-synth_mnist", "", algorithm="fedprox",
            algorithm_kwargs={"mu": 0.5}, clients=4, similarity=1.0,
            num_test=500, scale=0.25,
            config=dict(rounds=2, local_steps=1, batch_size=8, lr=0.5,
                        eval_every=5, num_workers=2, error_feedback=False,
                        compression="topk:0.25"),
        ),
        seed=0,
    )
    assert _without_wall_times(histories[0]) == _without_wall_times(expected)


@pytest.mark.parametrize("flags", [[], ["--workers", "1"]], ids=["no-flag", "workers-1"])
def test_run_command_workers_flag_overrides_only_when_given(monkeypatch, flags):
    """Without ``--workers`` the setting's default (the usable CPUs)
    stands; ``--workers 1`` is the serial engine."""
    import repro.algorithms.base as base
    from repro.fl.parallel import SerialExecutor, make_executor
    from repro.obs.sysinfo import usable_cpus

    built = []

    def recording_make_executor(config, **kwargs):
        executor = make_executor(config, **kwargs)
        built.append((config.num_workers, executor))
        return executor

    monkeypatch.setattr(base, "make_executor", recording_make_executor)
    assert main([
        "run", "--dataset", "synth_mnist", "--algorithm", "fedavg",
        "--clients", "4", "--rounds", "1", "--local-steps", "1",
        "--batch-size", "8", "--scale", "0.25", *flags,
    ]) == 0
    [(workers, executor)] = built
    if flags:
        assert workers == 1 and type(executor) is SerialExecutor
    else:
        assert workers == usable_cpus()
