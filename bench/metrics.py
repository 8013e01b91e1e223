"""The metric names every later perf or simplicity PR is judged with.

``BENCHMARK.json`` repeats these declarations for the driver;
``bench/tests/test_contract.py`` keeps the two in step.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EndToEnd:
    """One end-to-end metric: what a user of the system would see."""

    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: float  # share of the baseline median it may worsen by
    floor: float = 0.0  # absolute slack `compare` adds to the bound (setup_s only)


# Timings are in reference seconds (bench.hostspeed): wall-clock seconds over
# the host's slowdown while they were measured.
END_TO_END: tuple[EndToEnd, ...] = (
    # Workload entry to the first run_federated call: data build, partition,
    # model factory; the median of the run's set-ups.
    EndToEnd("setup_s", "s", "lower", 0.25, floor=0.25),
    # Wall clock around every run_federated call of one job: rounds, eval,
    # checkpoints, resume, executor start and close.
    EndToEnd("run_wall_s", "s", "lower", 0.25),
    # Median interval between consecutive round callbacks.
    EndToEnd("round_s_p50", "s", "lower", 0.25),
    # Committed client updates / run_wall_s.
    EndToEnd("client_updates_per_s", "1/s", "higher", 0.25),
    # Max ru_maxrss of the run's process and of its reaped children.
    EndToEnd("peak_rss_mb", "MB", "lower", 0.15),
    # algorithm.ledger uplink and downlink totals / rounds: exact counts.
    EndToEnd("bytes_up_per_round", "B", "lower", 0.0),
    EndToEnd("bytes_down_per_round", "B", "lower", 0.0),
    # Last evaluated test loss of the global model: the quality guard.
    EndToEnd("final_test_loss", "nats", "lower", 0.25),
)

# failed_ops_share is 0 on a healthy run, and the driver's contract wants
# end-to-end metrics that are never 0: it travels as the `failed` and
# `attempted` fields of every result instead, and `bench run` prints the share.
FAILED_OPS_SHARE = "failed_ops_share"


@dataclass(frozen=True)
class PerLayer:
    """One per-layer metric and the end-to-end metric it should move."""

    name: str
    unit: str
    better: str  # every one of them is a cost or a count of work: "lower"
    moves: str


def _layers(unit: str, moves: str, names: str) -> list[PerLayer]:
    return [PerLayer(name, unit, "lower", moves) for name in names.split()]


# Which workload exercises which layer (everywhere else the prediction is
# "no change") is the table in bench/README.md.
PER_LAYER: tuple[PerLayer, ...] = tuple(
    _layers("s", "setup_s", "data.build_s")
    + _layers("s", "round_s_p50 peak_rss_mb", "data.materialize_s")
    + _layers("count", "round_s_p50 peak_rss_mb", "data.materializations")
    + _layers("s", "round_s_p50", "data.sample_batch_s")
    + _layers(
        "s", "round_s_p50 client_updates_per_s",
        "nn.conv2d.forward_s nn.conv2d.backward_s nn.maxpool2d.forward_s "
        "nn.maxpool2d.backward_s nn.activation.forward_s nn.activation.backward_s",
    )
    + _layers(
        "s", "round_s_p50",
        "nn.lstmcell.forward_s nn.lstmcell.backward_s "
        "nn.embedding.forward_s nn.embedding.backward_s "
        "nn.linear.forward_s nn.linear.backward_s nn.loss_s nn.optim_step_s nn.param_io_s "
        "core.regularizer_eval_s",
    )
    + _layers("count", "round_s_p50", "core.regularizer_evals")
    + _layers("s", "round_s_p50", "core.delta_compute_s")
    + _layers("s", "round_s_p50 peak_rss_mb", "core.delta_table_s")
    + _layers("count", "round_s_p50 peak_rss_mb", "core.delta_rows_spilled")
    + _layers("s", "round_s_p50", "fl.sampling.sample_s")
    + _layers("s", "round_s_p50 run_wall_s", "fl.client.local_train_s fl.client.eval_s")
    + _layers("s", "round_s_p50 client_updates_per_s", "fl.parallel.dispatch_s")
    + _layers("ratio", "round_s_p50 client_updates_per_s", "fl.parallel.overhead_share")
    + _layers("s", "round_s_p50", "fl.wire.pack_s fl.wire.unpack_s")
    + _layers("B", "round_s_p50", "fl.wire.bytes_packed")
    + _layers(
        "s", "round_s_p50 peak_rss_mb",
        "fl.compression.decode_s fl.compression.residual_commit_s",
    )
    + _layers("s", "round_s_p50", "fl.server.aggregate_s")
    + _layers(
        "B", "bytes_up_per_round bytes_down_per_round",
        "fl.comm.bytes_up_model fl.comm.bytes_up_delta fl.comm.bytes_down_model "
        "fl.comm.bytes_down_delta fl.hierarchy.cloud_bytes",
    )
    + _layers("rounds", "final_test_loss", "fl.async_engine.staleness_mean")
    + _layers("count", "final_test_loss failed_ops_share", "fl.async_engine.deferred_dispatches")
    + _layers(
        "s", "round_s_p50 client_updates_per_s",
        "serve.dispatch_s serve.request_s_p50 serve.request_s_p99",
    )
    + _layers("ratio", "round_s_p50 client_updates_per_s", "serve.overhead_share")
    + _layers("B", "round_s_p50", "serve.bytes_sent serve.bytes_received")
    + _layers("count", "failed_ops_share", "serve.redispatches serve.reconcile_mismatches")
    + _layers("s", "run_wall_s peak_rss_mb", "ckpt.save_s ckpt.restore_s")
    + _layers("count", "run_wall_s", "ckpt.saves")
    + _layers("B", "run_wall_s peak_rss_mb", "ckpt.bytes_written")
    + _layers("s", "round_s_p50", "fl.trainer.self_s")
    + _layers("ratio", "round_s_p50", "budget.unattributed_share")
    + _layers("ratio", "none (health of the traced run)", "obs.trace_overhead_share")
)

END_TO_END_BY_NAME = {metric.name: metric for metric in END_TO_END}

# The budget self-check: a traced job whose root keeps more than this share
# of its wall clock outside every recorded call is warned about / failed.
UNATTRIBUTED_WARN = 0.10
UNATTRIBUTED_FAIL = 0.25
