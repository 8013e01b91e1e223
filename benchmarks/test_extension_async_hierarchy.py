"""Extension benches: asynchronous FL and hierarchical FL.

Neither regime appears in the paper; both are standard deployments its
method would meet in practice.  The async bench shows the staleness
discount containing stragglers; the hierarchy bench shows region models
drifting between cloud syncs — the flat non-IID problem recursing one
level up.

Both benches run through the first-class execution modes:
``FLConfig(execution="async", buffer_size=1)`` reproduces the
one-update-per-arrival FedAsync server, and
``FLConfig(topology="hier:R:P")`` runs the region-parallel
hierarchical round step.
"""

import numpy as np

from benchmarks.common import SILO, banner, report
from repro.experiments import (
    preset_algorithm,
    preset_config,
    preset_federation,
    preset_model_fn,
    with_overrides,
)
from repro.fl.runtime import TraceRuntime
from repro.fl.trainer import run_federated

# FedAvg on 8 Sim 0% synth-MNIST clients, E=5, B=32, lr 0.3.
FEDAVG = with_overrides(SILO, {"algorithm": "fedavg", "clients": 8, "lr": 0.3})


def _edge_divergence(region_params):
    stacked = np.stack(region_params)
    return float(np.linalg.norm(stacked - stacked.mean(axis=0), axis=1).mean())


def test_extension_async_staleness_discount(once):
    def run():
        fed = preset_federation(FEDAVG, 0)
        model_fn = preset_model_fn(FEDAVG, fed.spec, 0)
        rng = np.random.default_rng(1)
        speeds = np.concatenate([[1.0, 1.0], rng.uniform(6.0, 12.0, size=6)])
        runtime = TraceRuntime(speeds)
        out = {}
        for exponent in [0.0, 1.0]:
            preset = with_overrides(
                FEDAVG,
                {"rounds": 120, "execution": "async", "buffer_size": 1,
                 "staleness_exponent": exponent, "eval_every": 20},
            )
            history = run_federated(
                preset_algorithm(preset), fed, model_fn, preset_config(preset, 0),
                runtime=runtime,
            )
            async_history = history.async_history
            out[exponent] = (
                history.final_accuracy,
                int(async_history.staleness_values().max()),
                async_history.client_update_counts(8),
            )
        return out

    out = once(run)
    banner("Extension — async FL: staleness discount (exponent 0 vs 1)")
    for exponent, (acc, max_stale, counts) in out.items():
        report(
            f"exponent={exponent}: final acc {acc:.4f}, max staleness {max_stale}, "
            f"updates/client {counts.tolist()}"
        )
    # Stale arrivals exist, so the discount has something to act on.
    assert all(max_stale > 0 for _a, max_stale, _c in out.values())
    assert all(np.isfinite(acc) for acc, _s, _c in out.values())
    # The discount contains the stragglers' stale drag: with it the run
    # trains to something useful, without it the model is dragged around.
    assert out[1.0][0] > 0.2
    assert out[1.0][0] > out[0.0][0]


def test_extension_hierarchy_edge_drift(once):
    def run():
        preset = with_overrides(
            FEDAVG, {"rounds": 12, "topology": "hier:2:4", "eval_every": 4}
        )
        fed = preset_federation(preset, 0)
        records = []

        def observe(info):
            records.append(
                {
                    "round": info["round"],
                    "cloud_sync": info["cloud_sync"],
                    "edge_divergence": _edge_divergence(info["region_params"]),
                    "train_loss": info["train_loss"],
                }
            )

        history = run_federated(
            preset_algorithm(preset), fed, preset_model_fn(preset, fed.spec, 0),
            preset_config(preset, 0), region_observer=observe,
        )
        return records, history.final_accuracy

    records, final_accuracy = once(run)
    banner("Extension — hierarchical FL: region divergence between cloud syncs")
    for record in records:
        marker = "  <- cloud sync" if record["cloud_sync"] else ""
        report(
            f"round {record['round']:3d}  divergence {record['edge_divergence']:.4f}"
            f"  loss {record['train_loss']:.4f}{marker}"
        )
    report(f"final accuracy: {final_accuracy:.4f}")
    # Divergence is zeroed at every cloud sync and positive in between —
    # the flat non-IID drift recursing at the region level.
    sync_rounds = [r["round"] for r in records if r["cloud_sync"]]
    assert sync_rounds, "no cloud sync in 12 rounds at period 4"
    for record in records:
        if record["cloud_sync"]:
            assert record["edge_divergence"] < 1e-9
    between = [r["edge_divergence"] for r in records if not r["cloud_sync"]]
    assert max(between) > 0
    assert final_accuracy > 0.2
