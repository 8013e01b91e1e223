"""Hierarchical-aggregation benchmark: region-parallel speedup and
cloud-link traffic reduction.

Three studies, each gated behind bit-identity checks:

* **identity** — ``topology='hier:1:1'`` must reproduce the flat engine
  bit for bit (params + per-round ledger) for every registered
  algorithm.  This gate is fatal: no timing or bytes number is reported
  from a run that broke the invariant.
* **region-parallel speedup** — a device-latency scenario (every client
  sleeps a fixed simulated device time) run hierarchically, serial vs
  the process pool executing all regions concurrently.
  Client latencies on different workers overlap, so the pool wins
  regardless of host core count.  Serial and parallel hierarchical runs
  must be bit-identical before the speedup counts.
* **cloud-bytes reduction** — the WAN argument for hierarchy: with R
  regions syncing every P rounds, only ``2 R / P`` model transfers per
  round cross the charged cloud link instead of the flat engine's
  ``2 N``.  Compared at equal round counts on byte-exact ledgers.

Run directly (not under pytest-benchmark):

    PYTHONPATH=src python benchmarks/bench_hierarchy.py [--quick]

Writes ``BENCH_hierarchy.json`` next to the repo root.  Exits non-zero
if any gate fails (identity gates are checked first and fatally).
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

import numpy as np

from repro.algorithms import ALGORITHMS, FedAvg, make_algorithm
from repro.experiments import build_image_federation, default_model_fn
from repro.fl.config import FLConfig
from repro.fl.trainer import run_federated
from repro.models import build_mlp
from repro.nn.serialization import num_params

CLIENTS = 16
WORKERS = 4
ROUNDS = 4
DEVICE_LATENCY_SEC = 0.35  # per-client simulated device time
SPEEDUP_TARGET = 1.3
CLOUD_BYTES_TARGET = 4.0

# rfedavg_exact refuses R > 1 by contract (region_aggregation_safe =
# False); it still participates in the hier:1:1 identity gate.
IDENTITY_MATRIX = [
    ("fedavg", {}),
    ("fedavgm", {}),
    ("fednova", {}),
    ("fedprox", {"mu": 0.1}),
    ("moon", {"mu": 0.5}),
    ("scaffold", {}),
    ("qfedavg", {"q": 1.0}),
    ("rfedavg", {"lam": 1e-3}),
    ("rfedavg+", {"lam": 1e-3}),
    ("rfedavg_exact", {"lam": 1e-3}),
]
QUICK_IDENTITY = [("fedavg", {}), ("scaffold", {})]


class LatencyFedAvg(FedAvg):
    """FedAvg whose clients carry a fixed simulated device latency."""

    name = "fedavg"

    def __init__(self, latency: float) -> None:
        super().__init__()
        self.latency = latency

    def _client_update(self, round_idx, client_id):
        time.sleep(self.latency)
        return super()._client_update(round_idx, client_id)


def _identity_fed():
    fed = build_image_federation(
        "synth_mnist", num_clients=8, similarity=0.0,
        num_train=800, num_test=200, seed=0,
    )
    model_fn = lambda: build_mlp(  # noqa: E731
        fed.spec.flat_dim, fed.spec.num_classes,
        np.random.default_rng(0), (16,), feature_dim=8,
    )
    return fed, model_fn


def _equivalent(run_a, run_b) -> bool:
    alg_a, hist_a = run_a
    alg_b, hist_b = run_b
    if not np.array_equal(alg_a.global_params, alg_b.global_params):
        return False
    if len(hist_a.records) != len(hist_b.records):
        return False
    for rec_a, rec_b in zip(hist_a.records, hist_b.records):
        if (
            rec_a.train_loss != rec_b.train_loss
            or rec_a.bytes_up != rec_b.bytes_up
            or rec_a.bytes_down != rec_b.bytes_down
            or rec_a.test_accuracy != rec_b.test_accuracy
        ):
            return False
    return True


def _run(name, kwargs, fed, model_fn, config, **run_kwargs):
    algorithm = make_algorithm(name, **kwargs)
    history = run_federated(algorithm, fed, model_fn, config, **run_kwargs)
    return algorithm, history


def identity_gate(quick: bool) -> dict:
    """hier:1:1 == flat, bit for bit, per algorithm.  Fatal on failure."""
    fed, model_fn = _identity_fed()
    config = FLConfig(
        rounds=3, local_steps=2, batch_size=8, lr=0.1, seed=11, eval_every=3
    )
    matrix = QUICK_IDENTITY if quick else IDENTITY_MATRIX
    results = {}
    for name, kwargs in matrix:
        flat = _run(name, kwargs, fed, model_fn, config)
        hier = _run(
            name, kwargs, fed, model_fn, config.with_updates(topology="hier:1:1")
        )
        ok = _equivalent(flat, hier)
        results[name] = bool(ok)
        print(f"identity  {name:14s} hier:1:1 == flat: {ok}")
    if not quick:
        missing = set(ALGORITHMS) - {name for name, _ in IDENTITY_MATRIX}
        assert not missing, f"identity matrix misses algorithms: {missing}"
    return results


def speedup_study() -> dict:
    """Device-latency rounds, hier serial vs hier region-parallel."""
    fed = build_image_federation(
        "synth_cifar", num_clients=CLIENTS, similarity=0.5,
        num_train=1600, num_test=200, seed=0,
    )
    model_fn = default_model_fn("cnn", fed.spec, seed=0, scale=0.15)
    config = FLConfig(
        rounds=ROUNDS, local_steps=10, batch_size=32, lr=0.1,
        eval_every=ROUNDS, seed=0, topology=f"hier:{WORKERS}:2",
    )

    serial_alg = LatencyFedAvg(DEVICE_LATENCY_SEC)
    started = time.perf_counter()
    serial_hist = run_federated(serial_alg, fed, model_fn, config)
    serial_sec = time.perf_counter() - started

    parallel_alg = LatencyFedAvg(DEVICE_LATENCY_SEC)
    started = time.perf_counter()
    parallel_hist = run_federated(
        parallel_alg, fed, model_fn,
        config.with_updates(num_workers=WORKERS, executor="process"),
    )
    parallel_sec = time.perf_counter() - started

    identical = _equivalent((serial_alg, serial_hist), (parallel_alg, parallel_hist))
    speedup = serial_sec / parallel_sec
    print(
        f"speedup   hier:{WORKERS}:2 device-latency  serial {serial_sec:6.2f}s  "
        f"region-parallel({WORKERS}) {parallel_sec:6.2f}s  "
        f"speedup {speedup:5.2f}x  bit-identical={identical}"
    )
    return {
        "topology": config.topology,
        "clients": CLIENTS,
        "workers": WORKERS,
        "rounds": ROUNDS,
        "device_latency_sec": DEVICE_LATENCY_SEC,
        "cpu_count": os.cpu_count(),
        "serial_seconds": round(serial_sec, 4),
        "parallel_seconds": round(parallel_sec, 4),
        "speedup": round(speedup, 3),
        "bit_identical": identical,
    }


def cloud_bytes_study(edge_period: int = 4) -> dict:
    """Charged cloud-link bytes, flat vs hier:R:P at P >= 4."""
    fed, model_fn = _identity_fed()
    rounds = 2 * edge_period
    config = FLConfig(
        rounds=rounds, local_steps=2, batch_size=8, lr=0.1, seed=3,
        eval_every=rounds,
    )

    _flat_alg, flat_hist = _run("fedavg", {}, fed, model_fn, config)
    # Flat: every byte of every round crosses the cloud link.
    flat_cloud = sum(r.bytes_up + r.bytes_down for r in flat_hist.records)

    hier_rounds: list[dict] = []
    _run(
        "fedavg", {}, fed, model_fn,
        config.with_updates(topology=f"hier:4:{edge_period}"),
        region_observer=lambda info: hier_rounds.append(info["bytes"]),
    )
    hier_cloud = sum(
        v for rc in hier_rounds for k, v in rc.items()
        if k.partition(":")[2] == "cloud-model"
    )
    reduction = flat_cloud / hier_cloud if hier_cloud else float("inf")
    print(
        f"cloud-bytes  flat {flat_cloud}  hier:4:{edge_period} {hier_cloud}  "
        f"reduction {reduction:.1f}x over {rounds} rounds"
    )
    return {
        "topology": f"hier:4:{edge_period}",
        "rounds": rounds,
        "flat_cloud_bytes": int(flat_cloud),
        "hier_cloud_bytes": int(hier_cloud),
        "reduction": round(reduction, 2),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="CI mode: 2-algorithm identity gate, same speedup/bytes studies",
    )
    parser.add_argument("--out", default=None, help="output JSON path")
    args = parser.parse_args()

    fed, model_fn = _identity_fed()
    print(
        f"hierarchy bench (quick={args.quick}), host cores={os.cpu_count()}, "
        f"identity model {num_params(model_fn())} params"
    )

    identity = identity_gate(args.quick)
    identity_ok = all(identity.values())
    results: dict = {
        "quick": args.quick,
        "identity_hier_1_1": identity,
        "identity_ok": identity_ok,
    }
    if not identity_ok:
        # Fatal: do not report performance numbers off a broken engine.
        print("IDENTITY GATE FAILED — skipping performance studies")
    else:
        results["speedup"] = speedup_study()
        results["cloud_bytes"] = cloud_bytes_study()
        results["speedup_target"] = SPEEDUP_TARGET
        results["cloud_bytes_target"] = CLOUD_BYTES_TARGET
        results["speedup_target_met"] = bool(
            results["speedup"]["bit_identical"]
            and results["speedup"]["speedup"] >= SPEEDUP_TARGET
        )
        results["cloud_bytes_target_met"] = bool(
            results["cloud_bytes"]["reduction"] >= CLOUD_BYTES_TARGET
        )

    out_path = (
        Path(args.out)
        if args.out
        else Path(__file__).resolve().parent.parent / "BENCH_hierarchy.json"
    )
    out_path.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {out_path}")
    if not identity_ok:
        return 1
    return (
        0
        if results["speedup_target_met"] and results["cloud_bytes_target_met"]
        else 1
    )


if __name__ == "__main__":
    raise SystemExit(main())
