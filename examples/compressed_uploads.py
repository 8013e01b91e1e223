"""Combining the distribution regularizer with upload compression.

The paper's related work surveys quantization / sparsification for
communication-efficient FL; this example shows they compose with
rFedAvg+ — the delta payloads are already tiny (Table III), and the
model uploads can be quantized on top for a ~4x total traffic cut with
almost no accuracy loss.

    python examples/compressed_uploads.py
"""

from repro.algorithms import RFedAvgPlus
from repro.experiments import build_image_federation, cross_silo_config, default_model_fn
from repro.fl import run_federated


def main() -> None:
    fed = build_image_federation(
        "synth_cifar", num_clients=10, similarity=0.0, num_train=2000, num_test=400
    )
    config = cross_silo_config(rounds=40, batch_size=32, lr=0.5, eval_every=8)
    model_fn = default_model_fn("mlp", fed.spec, scale=1.0)

    variants = [
        ("dense uploads", "none"),
        ("8-bit quantized", "quantize:8"),
        ("top-10% sparsified", "topk:0.1"),
    ]
    print(f"{'variant':22s} {'accuracy':>9s} {'uplink bytes':>14s}")
    for label, spec in variants:
        algorithm = RFedAvgPlus(lam=1e-3)
        history = run_federated(
            algorithm, fed, model_fn,
            config.with_updates(compression=spec, error_feedback=False),
        )
        uplink = algorithm.ledger.total("up:model")
        print(f"{label:22s} {history.tail_mean_accuracy(3):9.4f} {uplink:14,}")


if __name__ == "__main__":
    main()
