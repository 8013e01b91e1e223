"""Extension ablations: upload compression and failure robustness.

Not a paper table — these cover the extension features DESIGN.md lists
(compression from the paper's related-work menu; the dropout/outlier
limitation its Sec. IV-C remarks acknowledge):

1. accuracy-vs-uplink tradeoff of top-k / quantized uploads combined
   with rFedAvg+ (driven through ``FLConfig.compression`` spec strings,
   with error feedback on by default — see docs/compression.md);
2. error-feedback recovery at the target pipeline: >= 8x fewer uplink
   bytes for <= 0.5 pp of accuracy, on the paper CNN;
3. graceful degradation under client dropout;
4. the byzantine-outlier failure mode the paper's remarks warn about.
"""

from benchmarks.common import LAMBDA, banner, image_fed_builder, model_builder, silo_config, report
from repro.algorithms import FedAvg, RFedAvgPlus, make_algorithm
from repro.experiments import build_image_federation, default_model_fn
from repro.fl.config import FLConfig
from repro.fl.faults import FaultModel
from repro.fl.trainer import run_federated

RECOVERY_SPEC = "topk:0.05|qsgd:8"
UPLINK_REDUCTION_MIN = 8.0
ACCURACY_LOSS_MAX_PP = 0.5  # percentage points of tail-mean accuracy


def _run_once(alg, fed, config):
    history = run_federated(alg, fed, model_builder("mlp")(fed, 0), config)
    return history.tail_mean_accuracy(3), alg.ledger.total("up:model")


def test_ablation_compression_tradeoff(once):
    def run():
        fed = image_fed_builder("synth_cifar", 10, 0.0)(0)

        def config(**overrides):
            return silo_config(rounds=40, eval_every=4, **overrides)

        rows = {}
        rows["dense"] = _run_once(RFedAvgPlus(lam=LAMBDA), fed, config())
        rows["top-25%"] = _run_once(
            RFedAvgPlus(lam=LAMBDA), fed, config(compression="topk:0.25")
        )
        rows["top-5%"] = _run_once(
            RFedAvgPlus(lam=LAMBDA), fed, config(compression="topk:0.05")
        )
        rows["top-5%/no-ef"] = _run_once(
            RFedAvgPlus(lam=LAMBDA), fed,
            config(compression="topk:0.05", error_feedback=False),
        )
        rows["8-bit"] = _run_once(
            RFedAvgPlus(lam=LAMBDA), fed, config(compression="quantize:8")
        )
        return rows

    rows = once(run)
    banner("Ablation — rFedAvg+ with compressed uploads (synth-CIFAR Sim 0%)")
    for name, (acc, up_bytes) in rows.items():
        report(f"{name:12s} acc={acc:.4f}  uplink={up_bytes:,} B")
    dense_acc, dense_bytes = rows["dense"]
    # 8-bit quantization is nearly free in accuracy, far cheaper on the wire.
    assert rows["8-bit"][0] > dense_acc - 0.08
    assert rows["8-bit"][1] < 0.3 * dense_bytes
    # Moderate sparsification stays in the game at a fraction of the bytes.
    assert rows["top-25%"][1] < 0.55 * dense_bytes
    assert rows["top-25%"][0] > dense_acc - 0.15
    # Error feedback pays its way at heavy sparsity: same bytes, no worse
    # accuracy than the open-loop run.
    assert rows["top-5%"][1] == rows["top-5%/no-ef"][1]
    assert rows["top-5%"][0] >= rows["top-5%/no-ef"][0] - 0.02


def test_ablation_compression_recovery(once):
    """Compression with error feedback keeps dense accuracy at a fraction
    of the uplink bytes (the kind of claim arXiv:1908.05891 makes).  At
    ``topk:0.05|qsgd:8`` FedAvg and rFedAvg+ (which compresses its second
    synchronization too) each send >= 8x fewer uplink bytes than their
    dense run and lose <= 0.5 pp of tail-mean accuracy."""

    def run():
        fed = build_image_federation(
            "synth_mnist", num_clients=8, similarity=0.0,
            num_train=1600, num_test=400, seed=0,
        )
        model_fn = default_model_fn("cnn", fed.spec, seed=0, scale=0.15)
        config = FLConfig(
            rounds=40, local_steps=3, batch_size=16, lr=0.3, eval_every=4, seed=0,
        )
        compressed = {
            "fedavg": dict(compression=RECOVERY_SPEC),
            "rfedavg+": dict(compression=RECOVERY_SPEC, sync_compression=RECOVERY_SPEC),
        }
        rows = {}
        for name, kwargs in (("fedavg", {}), ("rfedavg+", {"lam": LAMBDA})):
            for label, run_config in (
                ("dense", config), (RECOVERY_SPEC, config.with_updates(**compressed[name])),
            ):
                algorithm = make_algorithm(name, **kwargs)
                history = run_federated(algorithm, fed, model_fn, run_config)
                rows[name, label] = (
                    history.tail_mean_accuracy(3), algorithm.ledger.total("up")
                )
        return rows

    rows = once(run)
    banner(f"Ablation — compression recovery at {RECOVERY_SPEC} (synth-MNIST, CNN)")
    for (name, label), (acc, up_bytes) in rows.items():
        report(f"{name:9s} {label:18s} acc={acc:.4f}  uplink={up_bytes:,} B")
    for name in ("fedavg", "rfedavg+"):
        dense_acc, dense_bytes = rows[name, "dense"]
        acc, up_bytes = rows[name, RECOVERY_SPEC]
        reduction = dense_bytes / up_bytes
        loss_pp = (dense_acc - acc) * 100.0
        report(f"{name}: {reduction:.1f}x fewer uplink bytes, {loss_pp:+.2f} pp")
        assert reduction >= UPLINK_REDUCTION_MIN, name
        assert loss_pp <= ACCURACY_LOSS_MAX_PP, name


def test_ablation_dropout_robustness(once):
    def run():
        fed = image_fed_builder("synth_mnist", 10, 0.0)(0)
        config = silo_config(rounds=40, eval_every=4)
        accs = {}
        for prob in [0.0, 0.3]:
            alg = RFedAvgPlus(lam=LAMBDA)
            if prob:
                alg = alg.with_faults(FaultModel(dropout_prob=prob, seed=1))
            accs[prob], _ = _run_once(alg, fed, config)
        return accs

    accs = once(run)
    banner("Ablation — rFedAvg+ under client dropout")
    for prob, acc in accs.items():
        report(f"dropout={prob}: acc={acc:.4f}")
    # 30% churn costs some accuracy but must not collapse the run.
    assert accs[0.3] > 0.5 * accs[0.0]


def test_ablation_byzantine_limitation(once):
    """The paper's acknowledged limitation: regularization does not
    defend against outlier clients.  A sign-flip attacker hurts
    rFedAvg+ about as much as FedAvg — there is no implicit robustness."""

    def run():
        fed = image_fed_builder("synth_mnist", 10, 0.0)(0)
        config = silo_config(rounds=30, eval_every=5, lr=0.2)
        out = {}
        for label, alg in [
            ("fedavg-clean", FedAvg()),
            ("fedavg-attacked", FedAvg().with_faults(
                FaultModel(byzantine_clients=(0,), corruption_scale=3.0, seed=2))),
            ("rfedavg+-clean", RFedAvgPlus(lam=LAMBDA)),
            ("rfedavg+-attacked", RFedAvgPlus(lam=LAMBDA).with_faults(
                FaultModel(byzantine_clients=(0,), corruption_scale=3.0, seed=2))),
        ]:
            out[label], _ = _run_once(alg, fed, config)
        return out

    out = once(run)
    banner("Ablation — byzantine outlier (the paper's stated limitation)")
    for label, acc in out.items():
        report(f"{label:20s} acc={acc:.4f}")
    assert out["fedavg-attacked"] < out["fedavg-clean"]
    assert out["rfedavg+-attacked"] < out["rfedavg+-clean"]
