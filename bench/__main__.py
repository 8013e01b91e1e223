"""Command line of the benchmark: ``python -m bench <command>``."""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import warnings

from bench.host import REPO_ROOT, pin_blas_threads


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    once = commands.add_parser("once", help="one run of one workload, in this process")
    once.add_argument("--workload", required=True)
    once.add_argument("--seed", type=int, default=0)
    once.add_argument("--seconds", type=float, required=True)
    once.add_argument("--trace", type=int, choices=(0, 1), default=0)
    once.add_argument("--quick", action="store_true")
    once.add_argument("--out", default=None, help="also write the detailed result here")

    for name, text in (
        ("run", "every workload: repeated untraced runs and one traced run each"),
        ("agree", "run twice and compare the two results"),
    ):
        command = commands.add_parser(name, help=text)
        command.add_argument("--seed", type=int, default=0)
        command.add_argument("--out", default=None)
        command.add_argument("--workload", action="append", default=None)
        command.add_argument("--quick", action="store_true")

    compare = commands.add_parser("compare", help="apply the bounds to two result files")
    compare.add_argument("baseline")
    compare.add_argument("candidate")
    return parser


def _prepare_process() -> None:
    """Everything here has to happen before numpy loads."""
    pin_blas_threads()
    if not (REPO_ROOT / "src" / "repro").is_dir():
        sys.exit(f"bench: the program to measure is not there: {REPO_ROOT / 'src' / 'repro'}")
    sys.path.insert(0, str(REPO_ROOT / "src"))
    # Scratch files (checkpoints, spools, spill stores, the serve socket,
    # per-run result files) stay inside the checkout.
    scratch = REPO_ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = None


def _once(args) -> int:
    # A silent serve->serial or pool->serial degradation must fail the run.
    warnings.simplefilter("error", RuntimeWarning)

    from bench.once import run_once
    from bench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    return run_once(
        args.workload, args.seed, args.seconds, bool(args.trace), args.quick, args.out
    )


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    _prepare_process()
    if args.command == "once":
        return _once(args)
    if args.command == "compare":
        from bench.compare import compare_files

        return compare_files(args.baseline, args.candidate)
    from bench import suite

    if args.command == "run":
        return suite.run(args.seed, args.out, args.workload, args.quick)
    return suite.agree(args.seed, args.out, args.workload, args.quick)


if __name__ == "__main__":
    sys.exit(main())
