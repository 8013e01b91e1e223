"""Table III — size of the delta payload (bytes).

The paper reports the per-client delta state for CNN (d=702 effective)
and RNN models in cross-silo (N=20) and cross-device (N=500): rFedAvg's
state is N times rFedAvg+'s.  We reproduce the table twice: (a)
analytically from :class:`DeltaTable` with the paper's feature dims, and
(b) measured from an actual run's communication ledger at our scale.
"""

import numpy as np

from benchmarks.common import LAMBDA, SILO, banner, report
from repro.algorithms import RFedAvg, RFedAvgPlus
from repro.core.delta import DeltaTable
from repro.experiments import (
    preset_config,
    preset_federation,
    preset_model_fn,
    with_overrides,
)
from repro.experiments.report import format_comm_table
from repro.fl.trainer import run_federated

# The paper's Table III uses float32 payloads with these effective dims
# (56160 B = 20 clients x 702 floats x 4 B for the cross-silo CNN row).
# In the cross-device rows only *participating* clients count:
# SR * N = 0.2 * 500 = 100 (280800 B = 100 x 702 x 4).
PAPER_DIMS = {"CNN": 702, "RNN": 446}
PAPER_SETTINGS = {"Cross-Silo": 20, "Cross-Device": 100}


def test_table3_analytic(once):
    def compute():
        rows = {"rfedavg": {}, "rfedavg+": {}}
        for setting, clients in PAPER_SETTINGS.items():
            for model, dim in PAPER_DIMS.items():
                table = DeltaTable(clients, dim, dtype_bytes=4)
                key = f"{setting[6:] or setting}-{model}"
                rows["rfedavg"][key] = table.per_client_state_bytes(plus=False)
                rows["rfedavg+"][key] = table.per_client_state_bytes(plus=True)
        return rows

    rows = once(compute)
    banner("Table III — size of delta (bytes), paper dims")
    report(format_comm_table(rows))
    # Exact paper values for the rows the paper prints.
    assert rows["rfedavg"]["Silo-CNN"] == 56160
    assert rows["rfedavg+"]["Silo-CNN"] == 2808
    assert rows["rfedavg"]["Silo-RNN"] == 35680
    assert rows["rfedavg+"]["Silo-RNN"] == 1784
    assert rows["rfedavg"]["Device-CNN"] == 280800
    assert rows["rfedavg+"]["Device-CNN"] == 2808  # N-independent
    assert rows["rfedavg"]["Device-RNN"] == 178400
    assert rows["rfedavg+"]["Device-RNN"] == 1784


def test_table3_measured_ledger(once):
    """The measured per-round delta downlink must scale as N^2 vs N."""

    def run():
        preset = with_overrides(SILO, {"clients": 8, "rounds": 4})
        fed = preset_federation(preset, 0)
        model_fn = preset_model_fn(preset, fed.spec, 0)
        config = preset_config(preset, 0)
        plain = RFedAvg(lam=LAMBDA)
        run_federated(plain, fed, model_fn, config)
        plus = RFedAvgPlus(lam=LAMBDA)
        run_federated(plus, fed, model_fn, config)
        # Same run with the second synchronization riding a compression
        # spec (error feedback on): the O(d N) delta re-upload shrinks.
        synced = RFedAvgPlus(lam=LAMBDA)
        run_federated(
            synced, fed, model_fn,
            config.with_updates(sync_compression="topk:0.25|qsgd:8"),
        )
        return fed.num_clients, plain, plus, synced

    n, plain, plus, synced = once(run)
    down_plain = plain.ledger.total("down:delta")
    down_plus = plus.ledger.total("down:delta")
    banner("Table III (measured) — delta downlink over 4 rounds")
    report(f"rFedAvg  : {down_plain:,} B   (O(d N^2) per round)")
    report(f"rFedAvg+ : {down_plus:,} B   (O(d N) per round)")
    report(f"rFedAvg+ sync_compression=topk:0.25|qsgd:8 : "
           f"up:delta {synced.ledger.total('up:delta'):,} B "
           f"vs dense {plus.ledger.total('up:delta'):,} B")
    assert down_plain == n * down_plus
    # Upload side is identical (each client sends its own delta).
    assert plain.ledger.total("up:delta") == plus.ledger.total("up:delta")
    # The compressed second sync charges strictly fewer delta bytes, in
    # both directions of the second synchronization.
    assert synced.ledger.total("up:delta") < plus.ledger.total("up:delta")
    assert synced.ledger.total("down:model") < plus.ledger.total("down:model")
