"""Command-line interface.

Run a federated experiment without writing Python::

    python -m repro.cli run --dataset synth_cifar --algorithm rfedavg+ \
        --clients 10 --similarity 0.0 --rounds 30 --lam 1e-3

    python -m repro.cli run --dataset synth_mnist --rounds 10 \
        --trace --trace-out runs/     # persist spans + metrics artifacts

    python -m repro.cli preset quickstart --seed 0   # named entry points
    python -m repro.cli list            # algorithms + datasets
    python -m repro.cli experiments     # the paper table/figure index
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from repro.algorithms import ALGORITHMS
from repro.experiments.facade import (
    RUN_PRESETS,
    RunPreset,
    preset_algorithm,
    preset_config,
    run_preset,
    with_overrides,
)
from repro.experiments.registry import EXPERIMENTS
from repro.fl.compression import stage_usage
from repro.fl.config import FLConfig
from repro.obs import Tracer, format_round_table, format_span_summary

DATASETS = ("synth_mnist", "synth_cifar", "synth_sent140", "synth_femnist")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Distribution-regularized FL reproduction"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one federated training job")
    run.add_argument("--dataset", choices=DATASETS, default="synth_mnist")
    run.add_argument("--algorithm", choices=sorted(ALGORITHMS), default="rfedavg+")
    run.add_argument("--model", default=None,
                     help="model name (default: mlp for images, lstm for sequences)")
    run.add_argument("--clients", type=int, default=10)
    run.add_argument("--population", type=int, default=None, metavar="N",
                     help="virtual (lazy) population size for cross-device "
                          "scale-out; clients materialize on demand, so N can "
                          "be in the millions (synth_mnist only; overrides "
                          "--clients)")
    run.add_argument("--max-live", type=int, default=256, metavar="K",
                     help="resident-shard LRU bound for --population runs")
    run.add_argument("--similarity", type=float, default=0.0,
                     help="similarity s in [0,1] for image datasets")
    run.add_argument("--iid", action="store_true",
                     help="IID split for the naturally non-IID datasets")
    run.add_argument("--rounds", type=int, default=30)
    run.add_argument("--local-steps", type=int, default=5)
    run.add_argument("--batch-size", type=int, default=32)
    run.add_argument("--sample-ratio", type=float, default=1.0)
    run.add_argument("--lr", type=float, default=0.5)
    run.add_argument("--optimizer", default="sgd")
    run.add_argument("--lam", type=float, default=1e-3,
                     help="regularization weight (rFedAvg variants)")
    run.add_argument("--mu", type=float, default=1.0, help="FedProx proximal weight")
    run.add_argument("--q", type=float, default=1.0, help="q-FedAvg fairness exponent")
    run.add_argument("--scale", type=float, default=1.0, help="model width multiplier")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--eval-every", type=int, default=5)
    run.add_argument("--workers", dest="num_workers", metavar="WORKERS",
                     type=int, default=None,
                     help="client-execution worker processes (default: the "
                          "setting's, the usable CPUs; 1 = serial; results "
                          "are bit-identical for any value)")
    # Choice knobs deliberately carry no argparse choices= — FLConfig
    # validates them against the shared registry (repro.fl.config), so
    # the CLI, config objects and the facade all raise the identical
    # typo-suggesting ConfigError.
    run.add_argument("--executor", default="auto",
                     help="client-execution engine: auto | serial | process")
    run.add_argument("--dtype", default="float64",
                     help="compute precision: float32 (~2x faster) or float64 "
                          "(the bit-reproducible default)")
    run.add_argument("--execution", default="sync",
                     help="round execution: sync (barrier rounds), async "
                          "(event-driven buffered aggregation with staleness "
                          "discounting), or serve (client workers in separate "
                          "processes over real TCP/Unix-domain sockets, "
                          "bit-identical to sync)")
    run.add_argument("--serve-addr", default=None, metavar="ADDR",
                     help="--execution serve listen address: tcp:HOST:PORT "
                          "(port 0 = ephemeral) or uds:/path.sock (default: "
                          "an ephemeral Unix-domain socket)")
    run.add_argument("--runtime", default="instant",
                     help="per-client latency model for --execution async: "
                          "instant | gaussian[:mean=..,std=..,het=..] | "
                          "trace:<path.json>")
    run.add_argument("--buffer-size", type=int, default=None, metavar="K",
                     help="async: aggregate as soon as K updates arrive "
                          "(default: the full round cohort)")
    run.add_argument("--staleness-exponent", type=float, default=0.5,
                     metavar="A",
                     help="async: stale updates are discounted by (1+s)^-A "
                          "(0 disables the discount)")
    run.add_argument("--sampler", default="uniform",
                     help="cohort sampler: uniform (historical stream) | "
                          "reservoir (never enumerates the population)")
    run.add_argument("--history-mode", default="append",
                     help="round history: append (full record list) or stream "
                          "(O(1) running summaries)")
    run.add_argument("--stream-dir", default=None, metavar="DIR",
                     help="spool streamed history/ledger records as JSONL "
                          "under DIR (requires --history-mode stream)")
    run.add_argument("--state-cap", type=int, default=None, metavar="R",
                     help="per-client server tables: spill least-recently-used "
                          "rows to disk past R resident rows")
    run.add_argument("--compression", default="none", metavar="SPEC",
                     help="lossy upload-compression pipeline, stages joined "
                          f"with '|': {stage_usage()} "
                          "(e.g. 'topk:0.01|qsgd:8'; default none)")
    run.add_argument("--sync-compression", default="none", metavar="SPEC",
                     help="pipeline for the rFedAvg+ second synchronization "
                          "(model re-broadcast + delta re-upload; default none)")
    run.add_argument("--no-error-feedback", dest="error_feedback",
                     action="store_false",
                     help="disable the per-client error-feedback residuals "
                          "under lossy compression (ablation)")
    run.add_argument("--topology", default="flat", metavar="SPEC",
                     help="aggregation topology: flat (one server) or "
                          "hier:R:P (R regions aggregate their client slices "
                          "in parallel, cloud sync every P rounds; hier:1:1 "
                          "is bit-identical to flat)")
    run.add_argument("--cloud-compression", default="none", metavar="SPEC",
                     help="compression pipeline for the region->cloud uplink "
                          "of hierarchical runs (default none)")
    run.add_argument("--trace", action="store_true",
                     help="collect per-round spans and byte/metric counters")
    run.add_argument("--trace-out", default=None, metavar="DIR",
                     help="persist run artifacts (events.jsonl, summary.json, "
                          "rounds.csv) under DIR; implies --trace")
    run.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                     help="write crash-safe checkpoints under DIR; resumable "
                          "with --resume, bit-identical to an uninterrupted run")
    run.add_argument("--checkpoint-every", type=int, default=1, metavar="N",
                     help="checkpoint every N completed rounds (default 1; the "
                          "final round is always checkpointed)")
    run.add_argument("--resume", action="store_true",
                     help="resume from the newest valid checkpoint in "
                          "--checkpoint-dir (fresh start when none exists)")

    preset = sub.add_parser("preset", help="run a named experiment preset")
    preset.add_argument("name", choices=sorted(RUN_PRESETS),
                        help="preset name (see repro.list_presets())")
    preset.add_argument("--seed", type=int, default=0)
    preset.add_argument("--workers", dest="num_workers", metavar="WORKERS",
                        type=int, default=None,
                        help="client-execution worker processes")
    preset.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="override a preset/config/algorithm knob, "
                             "e.g. --set rounds=10 --set algorithm=fedavg")
    preset.add_argument("--trace", action="store_true")
    preset.add_argument("--trace-out", default=None, metavar="DIR")
    preset.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                        help="write crash-safe checkpoints under DIR")
    preset.add_argument("--checkpoint-every", type=int, default=None, metavar="N",
                        help="checkpoint cadence in rounds")
    preset.add_argument("--resume", action="store_true",
                        help="resume from the newest valid checkpoint")

    sweep = sub.add_parser("sweep", help="sweep one hyperparameter")
    sweep.add_argument("--dataset", choices=("synth_mnist", "synth_cifar"),
                       default="synth_cifar")
    sweep.add_argument("--algorithm", choices=sorted(ALGORITHMS), default="rfedavg+")
    sweep.add_argument("--knob", required=True,
                       help="'lam' | 'mu' | 'q' (algorithm) or an FLConfig "
                            "field like 'local_steps' / 'sample_ratio'")
    sweep.add_argument("--values", required=True,
                       help="comma-separated values, e.g. 0,0.001,0.1")
    sweep.add_argument("--clients", type=int, default=10)
    sweep.add_argument("--similarity", type=float, default=0.0)
    sweep.add_argument("--rounds", type=int, default=30)
    sweep.add_argument("--repeats", type=int, default=1)
    sweep.add_argument("--lr", type=float, default=0.5)
    sweep.add_argument("--scale", type=float, default=1.0)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                       help="checkpoint every sweep cell under DIR (one "
                            "subdirectory per swept value and repeat)")
    sweep.add_argument("--resume", action="store_true",
                       help="skip finished cells and resume interrupted "
                            "ones from their checkpoints")
    sweep.set_defaults(local_steps=5, batch_size=32, eval_every=5)

    sub.add_parser("list", help="list algorithms and datasets")
    sub.add_parser("experiments", help="list the paper experiment index")
    return parser


def _algorithm_kwargs(args) -> dict:
    name = args.algorithm
    if name in ("rfedavg", "rfedavg+", "rfedavg_exact"):
        return {"lam": args.lam}
    if name == "fedprox":
        return {"mu": args.mu}
    if name == "qfedavg":
        return {"q": args.q}
    return {}


def _print_round(rec) -> None:
    line = f"round {rec.round_idx:4d}  loss {rec.train_loss:.4f}"
    if rec.test_accuracy is not None:
        line += f"  acc {rec.test_accuracy:.4f}"
    print(line)


def _run_and_report(preset: RunPreset, args) -> int:
    """Run ``preset`` and print the outcome; shared by `run` and `preset`.

    Only ``--trace-out DIR`` writes artifacts, under
    ``DIR/<preset name>-seed<seed>``; ``--trace`` alone prints the round
    table and the span summary.
    """
    tracer = Tracer() if (args.trace or args.trace_out is not None) else None
    artifacts_dir = (
        Path(args.trace_out) / f"{preset.name}-seed{args.seed}"
        if args.trace_out is not None
        else None
    )
    history, artifacts = run_preset(
        preset, seed=args.seed, callbacks=[_print_round], tracer=tracer,
        artifacts_dir=artifacts_dir,
    )
    print(f"final accuracy: {history.final_accuracy:.4f}")
    print(f"total traffic:  {history.total_bytes():,} bytes")
    if tracer is not None:
        print()
        print(format_round_table(history))
        print()
        print(format_span_summary(tracer))
    if artifacts is not None:
        print(f"\nartifacts: {artifacts}")
    return 0


def _preset_from_flags(args, **fields_) -> RunPreset:
    """The preset a command's flags describe: flags named after
    :class:`RunPreset` fields set those, flags named after
    :class:`FLConfig` fields go into its config."""
    flags = vars(args)
    config = {f.name: flags[f.name] for f in fields(FLConfig) if f.name in flags}
    if config.get("num_workers", 0) is None:  # the flag was not given
        del config["num_workers"]
    return RunPreset(
        name=f"{args.algorithm}-{args.dataset}",
        description="",
        config=config,
        **{f.name: flags[f.name] for f in fields(RunPreset) if f.name in flags},
        **fields_,
    )


def _command_run(args) -> int:
    preset = _preset_from_flags(
        args,
        algorithm_kwargs=_algorithm_kwargs(args),
        num_test=500 if args.population is None else 256,
    )
    preset_config(preset, args.seed)  # refuse a bad knob before the banner
    print(
        f"{args.algorithm} on {args.dataset}: "
        f"{args.population or args.clients} clients, "
        f"{args.rounds} rounds, E={args.local_steps}, SR={args.sample_ratio}"
    )
    return _run_and_report(preset, args)


def _parse_override_value(raw: str):
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            continue
    if raw.lower() in ("true", "false"):
        return raw.lower() == "true"
    return raw


def _command_preset(args) -> int:
    overrides = {}
    for item in args.overrides:
        key, sep, value = item.partition("=")
        if not sep:
            raise SystemExit(f"--set expects KEY=VALUE, got {item!r}")
        overrides[key] = _parse_override_value(value)
    for key in ("num_workers", "checkpoint_dir", "checkpoint_every", "resume"):
        value = getattr(args, key)
        if value is not None and value is not False:  # the flag was given
            overrides[key] = value
    preset = with_overrides(RUN_PRESETS[args.name], overrides)
    preset_config(preset, args.seed)  # refuse a bad knob before the banner
    preset_algorithm(preset)
    print(f"{args.name}: {preset.description}")
    return _run_and_report(preset, args)


def _parse_values(raw: str) -> list:
    values = []
    for token in raw.split(","):
        token = token.strip()
        try:
            number = float(token)
        except ValueError as exc:
            raise SystemExit(f"cannot parse sweep value {token!r}") from exc
        values.append(int(number) if number.is_integer() and "." not in token and "e" not in token.lower() else number)
    return values


def _command_sweep(args) -> int:
    from repro.experiments.runner import sweep

    result = sweep(
        _preset_from_flags(args, num_test=500), args.knob,
        _parse_values(args.values), repeats=args.repeats, seed=args.seed,
    )
    print(result.as_table())
    best_value, best_acc = result.best()
    print(f"best: {args.knob}={best_value} (accuracy {best_acc:.4f})")
    return 0


def _command_list() -> int:
    print("algorithms:")
    for name in sorted(ALGORITHMS):
        print(f"  {name}")
    print("datasets:")
    for name in DATASETS:
        print(f"  {name}")
    return 0


def _command_experiments() -> int:
    for spec in EXPERIMENTS.values():
        print(f"{spec.exp_id:10s} {spec.paper_ref:16s} {spec.description}")
    return 0


def main(argv: list[str] | None = None) -> int:
    from repro.exceptions import CheckpointError, ConfigError

    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigError as exc:
        # Registry-validated knobs (--executor, --execution, ...) raise
        # here with a did-you-mean suggestion; show it without a trace.
        raise SystemExit(f"repro: {exc}")
    except CheckpointError as exc:
        # --resume over a checkpoint (or a sweep's finished cell) that
        # another job wrote, or one that cannot be read.
        reason = str(exc).removeprefix("refusing to resume: ")
        raise SystemExit(f"repro: refusing to resume: {reason}")


def _dispatch(args) -> int:
    if getattr(args, "resume", False) and args.checkpoint_dir is None:
        raise SystemExit("--resume requires --checkpoint-dir")
    if args.command == "run":
        return _command_run(args)
    if args.command == "preset":
        return _command_preset(args)
    if args.command == "sweep":
        return _command_sweep(args)
    if args.command == "list":
        return _command_list()
    return _command_experiments()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
