"""Cross-device scale-out benchmark: flat memory at a million clients.

Two parts:

1. **Bit-identity gate** — at small N the whole scale stack (virtual
   clients, lazily allocated delta table, streaming history) must
   reproduce the eager/appending run bit-for-bit, *including* across a
   crash/resume.  The bench refuses to report memory numbers from a
   stack that changed the math.
2. **Memory study** — one subprocess per population (``ru_maxrss`` is
   monotone within a process, so peaks must be isolated), each running
   a 100-client-per-round rFedAvg+ job over a virtual population.  The
   headline gate: peak RSS at 1M clients stays under 2x the 10k-client
   run — population size buys a size vector and a reported mask, not
   resident shards.

    PYTHONPATH=src python benchmarks/bench_scale.py            # full (1M)
    PYTHONPATH=src python benchmarks/bench_scale.py --quick    # CI (100k)

Writes ``BENCH_scale.json`` at the repo root (override with ``--out``).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent

COHORT = 100
ROUNDS = 5
SMALL_POPULATION = 10_000
FULL_POPULATION = 1_000_000
QUICK_POPULATION = 100_000
RSS_GATE = 2.0  # peak_rss(big) must stay under this multiple of small
HIER_TOPOLOGY = "hier:8:4"  # the hierarchy column's topology at big N


def _model_fn(fed, seed: int = 0):
    from repro.models import build_mlp

    return lambda: build_mlp(
        fed.spec.flat_dim, fed.spec.num_classes,
        np.random.default_rng(seed), (16,), feature_dim=8,
    )


def _scale_config(population: int, **overrides):
    from repro.fl.config import FLConfig

    base = dict(
        rounds=ROUNDS, local_steps=2, batch_size=8, lr=0.1, seed=7,
        sample_ratio=COHORT / population, sampler="reservoir",
        history_mode="stream", eval_every=ROUNDS,
    )
    base.update(overrides)
    return FLConfig(**base)


# -- part 2: one population, measured in its own process ----------------------------


def probe(population: int, topology: str = "flat") -> dict:
    from repro.algorithms import make_algorithm
    from repro.data import make_virtual_federation
    from repro.fl.trainer import run_federated
    from repro.obs import peak_rss_bytes

    fed = make_virtual_federation(
        population, seed=1, similarity=0.2, samples_per_client=20, max_live=256
    )
    algorithm = make_algorithm("rfedavg+", lam=1e-3)
    config = _scale_config(population, topology=topology)
    started = time.perf_counter()
    history = run_federated(algorithm, fed, _model_fn(fed), config)
    wall = time.perf_counter() - started
    summary = history.summary_dict()
    return {
        "population": population,
        "topology": topology,
        "cohort": COHORT,
        "rounds": summary["num_records"],
        "peak_rss_mb": round(peak_rss_bytes() / 2**20, 1),
        "wall_sec": round(wall, 2),
        "final_accuracy": round(history.final_accuracy or 0.0, 4),
        "materializations": fed.clients.materializations,
        "max_live_clients": fed.clients.max_live,
        "delta_rows_resident": algorithm.delta_table.resident_rows,
        "delta_rows_spilled": algorithm.delta_table.spilled_rows,
    }


def _probe_in_subprocess(population: int, topology: str = "flat") -> dict:
    proc = subprocess.run(
        [
            # The probe runs under this process's -W options, so
            # `-W error::RuntimeWarning` (a lost render-ahead helper) is
            # fatal there too.
            sys.executable, *(f"-W{option}" for option in sys.warnoptions),
            str(Path(__file__).resolve()),
            "--probe", str(population), "--probe-topology", topology,
        ],
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": "src"},
        capture_output=True,
        text=True,
        timeout=1800,
    )
    if proc.returncode != 0:
        raise SystemExit(f"probe({population}) failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


# -- part 1: bit-identity gates at small N ------------------------------------------


def _identity_gate(tmp_path: Path) -> dict:
    from repro.algorithms import make_algorithm
    from repro.data import make_virtual_federation
    from repro.fl.trainer import run_federated

    virt = make_virtual_federation(
        12, seed=5, similarity=0.2, samples_per_client=16, max_live=4
    )
    eager = virt.materialize()
    verdicts: dict[str, bool] = {}

    def _run(fed, **overrides):
        config = _scale_config(
            fed.num_clients, sample_ratio=0.5, eval_every=2, **overrides
        )
        algorithm = make_algorithm("rfedavg+", lam=1e-3)
        run_federated(algorithm, fed, _model_fn(fed), config)
        return algorithm

    # Virtual + streaming vs eager + appending.
    lazy = _run(virt, stream_dir=str(tmp_path / "lazy"))
    dense = _run(eager, history_mode="append")
    verdicts["virtual_sharded_streaming_vs_eager"] = bool(
        np.array_equal(lazy.global_params, dense.global_params)
    )

    # Crash/resume on the full scale stack.
    ckpt_dir = tmp_path / "ckpt"
    _run(
        virt, stream_dir=str(tmp_path / "crash"),
        checkpoint_dir=str(ckpt_dir), checkpoint_keep=50,
    )
    for round_idx in range(2, ROUNDS):
        path = ckpt_dir / f"ckpt-{round_idx:08d}.rck"
        if path.exists():
            path.unlink()
    resumed = _run(
        virt, stream_dir=str(tmp_path / "crash"),
        checkpoint_dir=str(ckpt_dir), checkpoint_keep=50, resume=True,
    )
    verdicts["crash_resume"] = bool(
        np.array_equal(lazy.global_params, resumed.global_params)
    )

    for gate, passed in verdicts.items():
        if not passed:
            raise SystemExit(
                f"bit-identity gate failed: {gate} — the scale stack changed "
                "the math, not reporting memory numbers"
            )
    return verdicts


# -- driver -------------------------------------------------------------------------


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help=f"big population {QUICK_POPULATION:,} instead of "
                             f"{FULL_POPULATION:,} (CI smoke)")
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_scale.json"))
    parser.add_argument("--probe", type=int, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--probe-topology", default="flat", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.probe is not None:
        print(json.dumps(probe(args.probe, args.probe_topology)))
        return

    import tempfile

    with tempfile.TemporaryDirectory(prefix="bench-scale-") as tmp:
        print("bit-identity gate: scale stack == eager stack ...")
        gate = _identity_gate(Path(tmp))
        print(f"  {gate}")

    big_population = QUICK_POPULATION if args.quick else FULL_POPULATION
    cells = {}
    for population in (SMALL_POPULATION, big_population):
        cell = _probe_in_subprocess(population)
        cells[str(population)] = cell
        print(
            f"  N={population:>9,}  peak RSS {cell['peak_rss_mb']:7.1f} MB  "
            f"{cell['wall_sec']:6.2f}s  "
            f"{cell['materializations']} shards rendered"
        )

    # Hierarchy column: the big population again under hier:8:4 — the
    # region tier adds O(R) model copies, not O(N) state, so the same
    # peak-RSS gate applies unchanged.
    hier_cell = _probe_in_subprocess(big_population, topology=HIER_TOPOLOGY)
    cells[f"{big_population}:{HIER_TOPOLOGY}"] = hier_cell
    print(
        f"  N={big_population:>9,} ({HIER_TOPOLOGY})  "
        f"peak RSS {hier_cell['peak_rss_mb']:7.1f} MB  "
        f"{hier_cell['wall_sec']:6.2f}s  "
        f"{hier_cell['materializations']} shards rendered"
    )

    small = cells[str(SMALL_POPULATION)]
    big = cells[str(big_population)]
    ratio = big["peak_rss_mb"] / small["peak_rss_mb"]
    hier_ratio = hier_cell["peak_rss_mb"] / small["peak_rss_mb"]
    print(f"  RSS ratio {ratio:.2f}x flat, {hier_ratio:.2f}x {HIER_TOPOLOGY} "
          f"(gate: < {RSS_GATE}x)")
    if ratio >= RSS_GATE:
        raise SystemExit(
            f"memory gate failed: {big_population:,} clients peaked at "
            f"{ratio:.2f}x the {SMALL_POPULATION:,}-client run"
        )
    if hier_ratio >= RSS_GATE:
        raise SystemExit(
            f"memory gate failed: {big_population:,} clients under "
            f"{HIER_TOPOLOGY} peaked at {hier_ratio:.2f}x the "
            f"{SMALL_POPULATION:,}-client flat run"
        )

    result = {
        "cohort_per_round": COHORT,
        "rounds": ROUNDS,
        "quick": args.quick,
        "bit_identity": gate,
        "populations": cells,
        "peak_rss_ratio": round(ratio, 3),
        "peak_rss_ratio_hier": round(hier_ratio, 3),
        "rss_gate": RSS_GATE,
        "interpretation": (
            "Each population runs in its own subprocess (ru_maxrss is "
            "monotone) with 100 clients sampled per round by Floyd "
            "reservoir, lazily materialized shards, a lazily allocated "
            "delta table and a streaming history. Peak RSS is flat across a "
            "100x population jump because the only O(N) state is the "
            "int64 size vector and the boolean reported mask; client "
            "data, delta rows and round records scale with the cohort. "
            "The identity gates prove the same stack is bit-identical "
            "to the eager path at small N, crash/resume included. The "
            "hierarchy column reruns the big population under "
            f"{HIER_TOPOLOGY}: the region tier adds R model copies "
            "(O(R d)) and an O(R) bounds array, so it sits under the "
            "same peak-RSS gate."
        ),
    }
    out = Path(args.out)
    out.write_text(json.dumps(result, indent=1))
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
