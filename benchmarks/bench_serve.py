"""Socket serving benchmark: RFW1 over real sockets, gated on identity.

Two parts:

1. **Bit-identity gate** — serve mode (forked workers over TCP and
   Unix-domain sockets) must reproduce the in-process serial engine bit
   for bit: dense runs, a compression pipeline with error feedback, and
   a crash/resume of a served job.  Any drift refuses to report numbers
   (and any silent degradation to serial execution fails the gate too:
   the RuntimeWarning is promoted to an error).
2. **Latency/throughput study** — round and per-request latency
   percentiles (p50/p95/p99 from the ``serve.*`` quantile metrics) and
   client throughput versus worker count, over UDS and TCP.
3. **State-bytes gate** — one compressed cell (64 clients, a quarter of
   them per round, error feedback on): the round-state frame must stay
   within ``model + cohort x residual row + 4 KiB``, i.e. carry the
   cohort's rows of the residual table and not the population's.

    PYTHONPATH=src python benchmarks/bench_serve.py            # full
    PYTHONPATH=src python benchmarks/bench_serve.py --quick    # CI smoke

Writes ``BENCH_serve.json`` at the repo root (override with ``--out``).
"""

from __future__ import annotations

import argparse
import json
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent

ROUNDS = 6
LOCAL_STEPS = 4
# The compressed cell: big enough that a population-sized residual
# table (64 rows) cannot hide under a cohort-sized bound (16 rows).
COMPRESSED_CLIENTS = 64
COMPRESSED = dict(compression="topk:0.05|qsgd:8", sample_ratio=0.25)
STATE_SLACK_BYTES = 4096


def _federation(num_clients: int):
    from repro.experiments import build_image_federation

    return build_image_federation(
        "synth_mnist",
        num_clients=num_clients,
        similarity=0.0,
        num_train=40 * num_clients,
        num_test=160,
    )


def _model_fn(fed, seed: int = 0):
    from repro.models import build_mlp

    return lambda: build_mlp(
        fed.spec.flat_dim, fed.spec.num_classes,
        np.random.default_rng(seed), (32,), feature_dim=16,
    )


def _config(**overrides):
    from repro.fl.config import FLConfig

    base = dict(
        rounds=ROUNDS, local_steps=LOCAL_STEPS, batch_size=16, lr=0.1,
        seed=13, eval_every=ROUNDS,
    )
    base.update(overrides)
    return FLConfig(**base)


def _run(fed, algorithm_name="fedavg", tracer=None, **overrides):
    """One federated job; serve degradation warnings are fatal."""
    from repro.algorithms import make_algorithm
    from repro.fl.trainer import run_federated

    algorithm = make_algorithm(algorithm_name)
    config = _config(**overrides)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        started = time.perf_counter()
        run_federated(algorithm, fed, _model_fn(fed), config, tracer=tracer)
        wall = time.perf_counter() - started
    return algorithm, wall


# -- part 1: bit-identity gates -----------------------------------------------------


def _identity_gate(tmp: Path) -> dict:
    verdicts: dict[str, bool] = {}
    fed = _federation(8)

    def _check(gate: str, a, b) -> None:
        verdicts[gate] = bool(np.array_equal(a.global_params, b.global_params))

    serial, _ = _run(fed)
    uds, _ = _run(fed, execution="serve", num_workers=2)
    _check("serve_uds_vs_serial", serial, uds)

    tcp, _ = _run(fed, execution="serve", num_workers=2, serve_addr="tcp:127.0.0.1:0")
    _check("serve_tcp_vs_serial", serial, tcp)

    spec = "topk:0.25|qsgd:8"
    serial_c, _ = _run(fed, compression=spec)
    served_c, _ = _run(fed, compression=spec, execution="serve", num_workers=2)
    _check("serve_compressed_vs_serial", serial_c, served_c)

    # Crash/resume of a served job: checkpoint every round, drop the
    # newest checkpoints as a crash would, resume under serve.
    ckpt_dir = tmp / "ckpt"
    serve_kwargs = dict(
        execution="serve", num_workers=2,
        checkpoint_dir=str(ckpt_dir), checkpoint_keep=50,
    )
    _run(fed, "scaffold", **serve_kwargs)
    for round_idx in range(ROUNDS // 2, ROUNDS):
        path = ckpt_dir / f"ckpt-{round_idx:08d}.rck"
        if path.exists():
            path.unlink()
    resumed, _ = _run(fed, "scaffold", resume=True, **serve_kwargs)
    serial_s, _ = _run(fed, "scaffold")
    _check("serve_crash_resume_vs_serial", serial_s, resumed)

    for gate, passed in verdicts.items():
        if not passed:
            raise SystemExit(
                f"bit-identity gate failed: {gate} — the socket transport "
                "changed the math, not reporting latency numbers"
            )
    return verdicts


# -- part 2: latency / throughput ---------------------------------------------------


def _measure(fed, num_workers: int, addr: str | None, **overrides) -> dict:
    from repro.obs import Tracer

    tracer = Tracer()
    algorithm, wall = _run(
        fed, tracer=tracer,
        execution="serve", num_workers=num_workers, serve_addr=addr, **overrides,
    )
    snapshot = tracer.metrics.snapshot()
    quantiles = snapshot["quantiles"]
    counters = snapshot["counters"]
    request = quantiles["serve.request_latency_sec"]
    round_q = quantiles["serve.round_latency_sec"]

    def _ms(summary, key):
        return round(summary[key] * 1e3, 3) if summary[key] is not None else None

    return {
        "transport": "tcp" if addr else "uds",
        "workers": num_workers,
        "clients": fed.num_clients,
        "cohort": request["count"] // ROUNDS,
        "compression": overrides.get("compression", "none"),
        "rounds": ROUNDS,
        "wall_sec": round(wall, 3),
        "clients_per_sec": round(request["count"] / wall, 2),
        "request_latency_ms": {k: _ms(request, k) for k in ("p50", "p95", "p99")},
        "round_latency_ms": {k: _ms(round_q, k) for k in ("p50", "p95", "p99")},
        "bytes_sent": counters.get("serve.bytes_sent", 0),
        "bytes_received": counters.get("serve.bytes_received", 0),
        "model_bytes": int(algorithm.global_params.nbytes),
        # One round-state frame; every connection receives a copy.
        "state_bytes_per_round": counters.get("serve.state_bytes", 0) // ROUNDS,
        "ledger_reconciled": (
            counters.get("serve.bytes_wire_down") == counters.get("serve.bytes_ledger_down")
            and counters.get("serve.bytes_wire_up") == counters.get("serve.bytes_ledger_up")
        ),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smaller cohorts and fewer worker counts (CI smoke)")
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_serve.json"))
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="bench-serve-") as tmp:
        print("bit-identity gate: serve == serial (TCP, UDS, compressed, resume) ...")
        gate = _identity_gate(Path(tmp))
        print(f"  {gate}")

    cohorts = [8] if args.quick else [8, 16]
    worker_counts = [1, 2] if args.quick else [1, 2, 4]
    cells = []
    serial_walls = {}
    for num_clients in cohorts:
        fed = _federation(num_clients)
        _, serial_wall = _run(fed)
        serial_walls[str(num_clients)] = round(serial_wall, 3)
        for workers in worker_counts:
            cell = _measure(fed, workers, addr=None)
            cells.append(cell)
            print(
                f"  uds N={num_clients:3d} W={workers}  "
                f"{cell['clients_per_sec']:7.2f} clients/s  "
                f"req p50/p95/p99 "
                f"{cell['request_latency_ms']['p50']}/"
                f"{cell['request_latency_ms']['p95']}/"
                f"{cell['request_latency_ms']['p99']} ms"
            )
        # One TCP column per cohort at the widest worker count.
        cell = _measure(fed, worker_counts[-1], addr="tcp:127.0.0.1:0")
        cells.append(cell)
        print(
            f"  tcp N={num_clients:3d} W={worker_counts[-1]}  "
            f"{cell['clients_per_sec']:7.2f} clients/s  "
            f"req p50/p95/p99 "
            f"{cell['request_latency_ms']['p50']}/"
            f"{cell['request_latency_ms']['p95']}/"
            f"{cell['request_latency_ms']['p99']} ms"
        )

    # The compressed cell runs in quick mode too: its gate is the one
    # CI holds the broadcast's size to.
    cell = _measure(_federation(COMPRESSED_CLIENTS), 2, addr=None, **COMPRESSED)
    cells.append(cell)
    state_bound = (
        cell["model_bytes"] + cell["cohort"] * cell["model_bytes"] + STATE_SLACK_BYTES
    )
    print(
        f"  uds N={cell['clients']:3d} W=2 {cell['compression']}  "
        f"{cell['clients_per_sec']:7.2f} clients/s  "
        f"state {cell['state_bytes_per_round']} B/round (bound {state_bound})"
    )
    if cell["state_bytes_per_round"] > state_bound:
        raise SystemExit(
            f"state-bytes gate failed: the compressed cell broadcasts "
            f"{cell['state_bytes_per_round']} B of round state per round, over "
            f"model + cohort x row + 4 KiB = {state_bound} B — a per-client "
            "table is travelling whole instead of as the cohort's rows"
        )

    unreconciled = [
        c for c in cells if c["compression"] == "none" and not c["ledger_reconciled"]
    ]
    if unreconciled:
        raise SystemExit(
            f"byte reconciliation failed in {len(unreconciled)} dense cells — "
            "socket bytes drifted from the ledger's model-kind charges"
        )

    result = {
        "quick": args.quick,
        "rounds": ROUNDS,
        "local_steps": LOCAL_STEPS,
        "bit_identity": gate,
        "serial_wall_sec": serial_walls,
        "cells": cells,
        "interpretation": (
            "Every cell runs the same synchronous round decomposition; "
            "only the client-execution engine changes — forked workers "
            "speaking length-prefixed RFW1 frames over an ephemeral "
            "Unix-domain socket (or TCP with TCP_NODELAY). The identity "
            "gate proves serve mode is bit-identical to the serial "
            "engine (dense, compressed-with-error-feedback, and across "
            "a crash/resume) before any number is reported, and every "
            "dense cell additionally requires socket-measured model "
            "bytes to equal the CommLedger's charges exactly; the "
            "compressed cell (64 clients, 16 per round, error feedback) "
            "requires the round-state frame to stay within model + "
            "cohort x residual row + 4 KiB. Latency "
            "percentiles come from the serve.* reservoir quantile "
            "metrics, so the table exercises the same observability "
            "path a traced run exports to summary.json. Toy models "
            "make per-task compute small, so wall-clock is dominated "
            "by transport + framing overhead — the quantity this bench "
            "tracks — rather than training arithmetic."
        ),
    }
    out = Path(args.out)
    out.write_text(json.dumps(result, indent=1))
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
