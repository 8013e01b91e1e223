"""Figure 10 — efficiency evaluation (scaled).

(a)/(b): minimal communication rounds to reach accuracy levels on
MNIST / CIFAR (cross-device non-IID).  Expected shape: rFedAvg+ needs
no more rounds than FedAvg at the same level.

(c)/(d): training time per round.  Expected shape: rFedAvg+ is roughly
half of rFedAvg (one leave-one-out delta vs an N-row table, plus the
cheaper broadcast) and close to FedAvg; we also require the measured
extra time of rFedAvg+ over FedAvg to stay modest.
"""

from benchmarks.common import DEVICE, IMAGE_ALGORITHMS, banner, report
from repro.experiments import run_grid, with_overrides
from repro.experiments.report import display_name, format_rounds_table

SUBSET = {k: IMAGE_ALGORITHMS[k] for k in ["fedavg", "scaffold", "rfedavg", "rfedavg+"]}


def _run(dataset: str):
    return run_grid(
        with_overrides(DEVICE, {"dataset": dataset, "rounds": 50, "eval_every": 1}),
        SUBSET,
    )


def test_fig10a_rounds_to_accuracy_mnist(once):
    results = once(_run, "synth_mnist")
    thresholds = [0.5, 0.6, 0.7]
    banner("Fig. 10(a) — minimal rounds to reach accuracy, synth-MNIST")
    report(format_rounds_table(results, thresholds))
    r_plus = results["rfedavg+"].rounds_to_reach(0.5)
    r_avg = results["fedavg"].rounds_to_reach(0.5)
    assert r_plus is not None
    if r_avg is not None:
        assert r_plus <= r_avg + 10


def test_fig10b_rounds_to_accuracy_cifar(once):
    results = once(_run, "synth_cifar")
    thresholds = [0.3, 0.4, 0.5]
    banner("Fig. 10(b) — minimal rounds to reach accuracy, synth-CIFAR")
    report(format_rounds_table(results, thresholds))
    assert results["rfedavg+"].rounds_to_reach(0.3) is not None


def test_fig10cd_time_per_round(once):
    """The paper's ~2x per-round time gap (rFedAvg vs rFedAvg+) comes
    from the regularizer itself: rFedAvg evaluates distances against
    N-1 peer deltas at every local step (O(N d) extra work) while
    rFedAvg+ uses one leave-one-out average (O(d)).  At our reduced
    scale (N=50, d=32) that cost hides inside a fast simulation, so the
    bench checks two things: (i) measured per-round compute is in the
    same ballpark for all methods at simulation scale, and (ii) at the
    paper's dimensions (100 participating clients, d=512) the measured
    per-step regularizer cost of the pairwise form is a large multiple
    of the leave-one-out form — the source of the paper's 2x figure.
    """
    import time

    import numpy as np

    from repro.core.regularizer import DistributionRegularizer

    def run_all():
        mnist = _run("synth_mnist")
        # Microbenchmark at paper dims: N-1 = 99 peers, d = 512, B = 32.
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(32, 512))
        peers = rng.normal(size=(99, 512))
        target = peers.mean(axis=0)
        pairwise = DistributionRegularizer(1e-4, mode="pairwise")
        loo = DistributionRegularizer(1e-4, mode="loo")
        reps = 400
        t0 = time.perf_counter()
        for _ in range(reps):
            pairwise.evaluate(feats, peers)
        t_pair = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(reps):
            loo.evaluate(feats, target)
        t_loo = time.perf_counter() - t0
        return mnist, t_pair / reps, t_loo / reps

    mnist, per_step_pairwise, per_step_loo = once(run_all)
    banner("Fig. 10(c)/(d) — per-round compute (ms) and regularizer step cost")
    compute = {n: 1000 * r.mean_round_time() for n, r in mnist.items()}
    for name, ms in compute.items():
        report(f"{display_name(name):10s} compute/round {ms:8.1f} ms")
    report(
        f"regularizer step cost at paper dims (N=100, d=512): "
        f"pairwise {1e6 * per_step_pairwise:.1f} us vs "
        f"leave-one-out {1e6 * per_step_loo:.1f} us "
        f"({per_step_pairwise / per_step_loo:.1f}x)"
    )
    # (i) simulation-scale compute parity (regularizer cost is small here).
    assert compute["rfedavg+"] <= compute["rfedavg"] * 1.5
    assert compute["rfedavg+"] <= compute["fedavg"] * 3.0
    # (ii) the paper-scale source of the 2x: pairwise costs a large
    # multiple of leave-one-out per local step.
    assert per_step_pairwise > 3.0 * per_step_loo


def test_fig10cd_train_step_speed_vs_reference(once):
    """Time per round is mostly the local train step.  The shipped kernels
    must beat their frozen pre-optimization twins (``repro.nn.reference``)
    on the paper's models: the CNN step in float32 >= 1.5x the reference
    in float64, the LSTM step in float64 >= 1.2x.  Best of 7 timed steps
    after a warm-up, with ``input_grad=False`` as local training runs them.
    Timings are of one process; pin BLAS to one thread
    (``OPENBLAS_NUM_THREADS=1``) for numbers comparable across hosts."""
    import timeit

    import numpy as np

    from repro import nn
    from repro.models.cnn import build_cnn
    from repro.models.lstm import build_lstm_classifier
    from repro.nn.reference import as_reference

    def step_seconds(build, x, y, *, reference=False):
        model = as_reference(build()) if reference else build()
        loss_fn = nn.SoftmaxCrossEntropy()

        def step():
            loss_fn.forward(model.forward(x), y)
            model.zero_grad()
            model.backward(loss_fn.backward(), input_grad=False)
            for p in model.parameters():
                p.data -= 0.1 * p.grad

        step()
        return min(timeit.repeat(step, number=1, repeat=7))

    def run():
        rng = np.random.default_rng(5)
        x_img, y_img = rng.normal(size=(32, 3, 28, 28)), rng.integers(0, 10, 32)
        x_tok, y_tok = rng.integers(0, 200, size=(32, 25)), rng.integers(0, 2, 32)

        def cnn():
            return build_cnn(3, 28, 10, np.random.default_rng(6), scale=0.5)

        def lstm():
            return build_lstm_classifier(200, 2, np.random.default_rng(7), scale=0.5)

        cnn_ref = step_seconds(cnn, x_img, y_img, reference=True)
        with nn.default_dtype("float32"):
            cnn_f32 = step_seconds(cnn, x_img, y_img)
        lstm_ref = step_seconds(lstm, x_tok, y_tok, reference=True)
        lstm_f64 = step_seconds(lstm, x_tok, y_tok)
        return cnn_ref / cnn_f32, lstm_ref / lstm_f64

    cnn_speedup, lstm_speedup = once(run)
    banner("Fig. 10(c)/(d) — train step, shipped kernels vs frozen reference")
    report(f"CNN  step (B=32, 28x28, scale 0.5): float32 {cnn_speedup:.2f}x the float64 reference")
    report(f"LSTM step (B=32, T=25, scale 0.5): float64 {lstm_speedup:.2f}x the float64 reference")
    assert cnn_speedup >= 1.5
    assert lstm_speedup >= 1.2
