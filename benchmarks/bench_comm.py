"""Communication-path benchmark: packed wire format vs pickle baseline.

Measures the three wins of the packed flat-buffer transport
(:mod:`repro.fl.wire`, ``docs/communication.md``) and verifies each is
bit-identical to the baseline before reporting numbers:

* **payload bytes** — one TopK-compressed client update under the
  float32 dtype policy: the pre-wire engine pickles the dense float64
  reconstruction; the wire engine ships an ``int32`` index stream plus
  a value stream.  The gate is packed >= 4x smaller.  The dense
  uncompressed comparison (where pickling is already near-optimal) is
  reported honestly alongside — the win there is dtype-trueness, not
  ratio.
* **broadcast serialization** — per-round cost of getting the global
  state to workers: the wire engine forks one persistent pool per run
  and packs the round state exactly once per round into shared memory;
  the pickle engine re-forks the pool (re-shipping the whole process
  image) every round.
* **delta-embedding cache** — repeated ``_raw_delta`` calls with an
  unchanged model and data must hit the cache and beat recomputation
  (gate: >= 1.3x, full mode only).

Run directly (not under pytest)::

    PYTHONPATH=src python benchmarks/bench_comm.py          # full sizes
    PYTHONPATH=src python benchmarks/bench_comm.py --quick  # CI smoke

Writes ``BENCH_comm.json`` at the repo root.  Exit status: 0 when the
payload-ratio and bit-identity gates pass (plus the cache gate on full
runs), 1 otherwise — quick mode keeps the byte/identity gates fatal, so
the CI smoke job catches format or equivalence regressions.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import time
from pathlib import Path

import numpy as np

import repro.fl.parallel as parallel_mod
from repro import nn
from repro.algorithms import FedAvg, make_algorithm
from repro.experiments import build_image_federation, default_model_fn
from repro.fl import wire
from repro.fl.compression import TopKSparsifier
from repro.fl.config import FLConfig
from repro.fl.parallel import ClientUpdate, SerialExecutor
from repro.fl.trainer import run_federated

REPO_ROOT = Path(__file__).resolve().parent.parent

PAYLOAD_RATIO_TARGET = 4.0
CACHE_SPEEDUP_TARGET = 1.3
TOPK_RATIO = 0.05


# --------------------------------------------------------------------------
# payload bytes: packed wire message vs pickled ClientUpdate
# --------------------------------------------------------------------------

def _update_of(params, streams, wire_size) -> ClientUpdate:
    return ClientUpdate(
        client_id=0, params=params, wire=wire_size.scalars, task_loss=0.5,
        reg_loss=0.0, num_steps=5, train_seconds=0.01, worker=1234,
        params_streams=streams, wire_size=wire_size,
    )


def bench_payload(model_params: int) -> dict:
    """Bytes on the worker->parent hop for one client update (float32)."""
    with nn.default_dtype("float32"):
        rng = np.random.default_rng(0)
        vec = rng.normal(size=model_params).astype(nn.get_default_dtype())
        compressor = TopKSparsifier(TOPK_RATIO)

        # Pre-wire engine: compress() returns the dense float64
        # reconstruction and the whole ClientUpdate record is pickled.
        recon, size = compressor.compress(vec, np.random.default_rng(1))
        pickled = len(pickle.dumps(
            _update_of(recon, None, size), protocol=pickle.HIGHEST_PROTOCOL
        ))

        # Wire engine: the same update rides as int32 indices + values.
        streams, size2 = compressor.encode(vec, np.random.default_rng(1))
        packed = len(wire.pack_client_update(_update_of(None, streams, size2)))

        # The streams must reconstruct compress()'s output exactly.
        identical = bool(np.array_equal(compressor.decode(streams, vec.size), recon))

        # Dense uncompressed comparison, reported without a gate.
        dense_size = wire.pack_client_update(
            _update_of(vec, None, size.__class__(values=vec.size))
        )
        dense_pickled = len(pickle.dumps(
            _update_of(vec, None, size.__class__(values=vec.size)),
            protocol=pickle.HIGHEST_PROTOCOL,
        ))

    ratio = pickled / packed
    print(
        f"payload (topk {TOPK_RATIO:.0%}, {model_params} params, float32): "
        f"pickle {pickled:,} B -> packed {packed:,} B  ({ratio:.1f}x smaller)  "
        f"bit-identical={identical}"
    )
    return {
        "model_params": model_params,
        "compressor": f"topk({TOPK_RATIO})",
        "dtype": "float32",
        "pickle_bytes": pickled,
        "packed_bytes": packed,
        "ratio": round(ratio, 2),
        "bit_identical": identical,
        "dense_pickle_bytes": dense_pickled,
        "dense_packed_bytes": len(dense_size),
        "dense_ratio": round(dense_pickled / len(dense_size), 3),
    }


# --------------------------------------------------------------------------
# broadcast serialization: persistent pool + 1 state pack per round
# --------------------------------------------------------------------------

class _Counts:
    def __init__(self) -> None:
        self.pools = 0
        self.state_packs = 0


def _counted_run(transport: str, fed, model_fn, config) -> tuple[_Counts, float, FedAvg]:
    counts = _Counts()
    original_pool = parallel_mod._ProcessPool
    # Every state message — joined (pack_state) or written piece by
    # piece into the pool's mapping — comes out of the one encoder.
    original_pack_parts = wire.pack_parts

    class CountingPool(original_pool):
        def __init__(self, *args, **kwargs):
            counts.pools += 1
            super().__init__(*args, **kwargs)

    def counting_pack_parts(kind, segments):
        counts.state_packs += kind == "state"
        return original_pack_parts(kind, segments)

    parallel_mod._ProcessPool = CountingPool
    wire.pack_parts = counting_pack_parts
    try:
        algorithm = FedAvg()
        started = time.perf_counter()
        run_federated(
            algorithm, fed, model_fn,
            config.with_updates(num_workers=2, transport=transport),
        )
        elapsed = time.perf_counter() - started
    finally:
        parallel_mod._ProcessPool = original_pool
        wire.pack_parts = original_pack_parts
    return counts, elapsed, algorithm


def bench_broadcast(fed, model_fn, config) -> dict:
    wire_counts, wire_sec, wire_alg = _counted_run("wire", fed, model_fn, config)
    pickle_counts, pickle_sec, pickle_alg = _counted_run("pickle", fed, model_fn, config)
    identical = bool(np.array_equal(wire_alg.global_params, pickle_alg.global_params))
    eliminated = wire_counts.pools == 1 and wire_counts.state_packs == config.rounds
    print(
        f"broadcast ({config.rounds} rounds, 2 workers): "
        f"wire {wire_counts.pools} pool fork(s) + {wire_counts.state_packs} state "
        f"pack(s), {wire_sec:.2f}s;  pickle {pickle_counts.pools} pool forks, "
        f"{pickle_sec:.2f}s;  bit-identical={identical}"
    )
    return {
        "rounds": config.rounds,
        "workers": 2,
        "wire": {
            "pools_created": wire_counts.pools,
            "state_packs": wire_counts.state_packs,
            "seconds": round(wire_sec, 4),
        },
        "pickle": {
            "pools_created": pickle_counts.pools,
            "seconds": round(pickle_sec, 4),
        },
        "per_round_serialization_eliminated": eliminated,
        "bit_identical": identical,
    }


# --------------------------------------------------------------------------
# delta-embedding cache
# --------------------------------------------------------------------------

def _delta_sweep_seconds(algorithm, num_clients: int, repeats: int) -> float:
    started = time.perf_counter()
    for _ in range(repeats):
        for client in range(num_clients):
            algorithm._raw_delta(client)
    return time.perf_counter() - started


def bench_delta_cache(fed, config, repeats: int, scale: float) -> dict:
    """A cache hit replaces a feature-extractor forward pass over the
    whole shard with two content fingerprints, so the margin grows with
    model cost; the paper's CNN is the representative extractor (an MLP
    this small is cheaper to run than to fingerprint — the cache is off
    by construction a win only above that crossover)."""
    model_fn = default_model_fn("cnn", fed.spec, seed=0, scale=scale)
    runs = {}
    for cached in (True, False):
        algorithm = make_algorithm("rfedavg+", lam=1e-3, delta_cache=cached)
        run_federated(algorithm, fed, model_fn, config.with_updates(rounds=2))
        runs[cached] = algorithm
    # Both runs end at the same global model, so the sweeps below compute
    # identical deltas — one through the cache, one from scratch.
    cached_alg, uncached_alg = runs[True], runs[False]
    reference = [uncached_alg._raw_delta(c) for c in range(fed.num_clients)]
    warm = [cached_alg._raw_delta(c) for c in range(fed.num_clients)]  # key the cache
    identical = all(
        np.array_equal(a, b) for a, b in zip(reference, warm)
    ) and all(
        np.array_equal(cached_alg._raw_delta(c), reference[c])
        for c in range(fed.num_clients)
    )
    cached_sec = _delta_sweep_seconds(cached_alg, fed.num_clients, repeats)
    uncached_sec = _delta_sweep_seconds(uncached_alg, fed.num_clients, repeats)
    speedup = uncached_sec / cached_sec
    print(
        f"delta cache ({fed.num_clients} clients x {repeats} sweeps): "
        f"recompute {uncached_sec:.3f}s -> cached {cached_sec:.3f}s  "
        f"({speedup:.2f}x)  bit-identical={identical}  "
        f"hits={cached_alg.delta_cache.hits}"
    )
    return {
        "clients": fed.num_clients,
        "model": f"cnn(scale={scale})",
        "sweeps": repeats,
        "uncached_seconds": round(uncached_sec, 4),
        "cached_seconds": round(cached_sec, 4),
        "speedup": round(speedup, 3),
        "bit_identical": identical,
        "cache_hits": cached_alg.delta_cache.hits,
        "cache_misses": cached_alg.delta_cache.misses,
    }


# --------------------------------------------------------------------------
# end-to-end bit identity: serial vs wire-parallel, compressed
# --------------------------------------------------------------------------

def bench_bit_identity(fed, model_fn, config) -> dict:
    def run(num_workers: int):
        algorithm = FedAvg().with_compressor(TopKSparsifier(0.25))
        if num_workers == 1:
            algorithm.with_executor(SerialExecutor())
        run_federated(
            algorithm, fed, model_fn, config.with_updates(num_workers=num_workers)
        )
        return algorithm

    serial = run(1)
    parallel = run(2)
    identical = bool(np.array_equal(serial.global_params, parallel.global_params))
    ledger_identical = all(
        serial.ledger.round_bytes(r) == parallel.ledger.round_bytes(r)
        for r in range(serial.ledger.rounds)
    )
    degraded = parallel.executor.degraded
    transport = parallel.executor.transport
    print(
        f"bit identity (topk 25%, serial vs wire x2): params={identical} "
        f"ledger={ledger_identical} transport={transport} degraded={degraded}"
    )
    return {
        "params_identical": identical,
        "ledger_identical": ledger_identical,
        "transport": transport,
        "degraded": degraded,
    }


# --------------------------------------------------------------------------
# main
# --------------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small sizes for CI smoke (byte + identity gates stay fatal)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="output JSON path (default: BENCH_comm.json at repo root)")
    args = parser.parse_args()

    model_params = 20_000 if args.quick else 200_000
    clients = 6 if args.quick else 10
    rounds = 3 if args.quick else 5
    sweeps = 5 if args.quick else 20

    fed = build_image_federation(
        "synth_mnist", num_clients=clients, similarity=0.5,
        num_train=clients * 120, num_test=100, seed=0,
    )
    model_fn = default_model_fn("mlp", fed.spec, seed=0, scale=0.5)
    config = FLConfig(
        rounds=rounds, local_steps=3, batch_size=16, lr=0.1,
        eval_every=rounds, seed=0,
    )

    results = {
        "quick": args.quick,
        "cpu_count": os.cpu_count(),
        "payload": bench_payload(model_params),
        "broadcast": bench_broadcast(fed, model_fn, config),
        "delta_cache": bench_delta_cache(
            fed, config, sweeps, scale=0.15 if args.quick else 0.25
        ),
        "bit_identity": bench_bit_identity(fed, model_fn, config),
    }

    payload_ok = (
        results["payload"]["ratio"] >= PAYLOAD_RATIO_TARGET
        and results["payload"]["bit_identical"]
    )
    identity_ok = (
        results["bit_identity"]["params_identical"]
        and results["bit_identity"]["ledger_identical"]
        and results["broadcast"]["bit_identical"]
        and results["delta_cache"]["bit_identical"]
    )
    broadcast_ok = results["broadcast"]["per_round_serialization_eliminated"]
    cache_ok = results["delta_cache"]["speedup"] >= CACHE_SPEEDUP_TARGET
    results["targets"] = {
        "payload_ratio_min": PAYLOAD_RATIO_TARGET,
        "payload_ratio_met": payload_ok,
        "per_round_serialization_eliminated": broadcast_ok,
        "bit_identity_met": identity_ok,
        "cache_speedup_min": CACHE_SPEEDUP_TARGET,
        "cache_speedup_met": cache_ok,
        "cache_gate_enforced": not args.quick,
    }

    out_path = Path(args.out) if args.out else REPO_ROOT / "BENCH_comm.json"
    out_path.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {out_path}")

    fatal = payload_ok and identity_ok and broadcast_ok
    if not args.quick:
        fatal = fatal and cache_ok
    return 0 if fatal else 1


if __name__ == "__main__":
    raise SystemExit(main())
