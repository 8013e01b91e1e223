"""Peak resident memory is flat in the population size.

Each population runs in a subprocess of its own, because ``ru_maxrss``
only grows within a process: rFedAvg+ on a 100-client reservoir cohort
for 5 rounds over a virtual population (lazily rendered shards, at most
256 live, a delta table that allocates only reported rows, a streaming
history).  The probe runs under ``-W error::RuntimeWarning``, so a
render-ahead helper that is lost fails it instead of rendering inline.

The gate: at 10⁶ clients the peak stays under 2x the 10⁴-client run,
flat and under ``hier:8:4``.  The only O(N) state is the int64 size
vector and the boolean reported mask; shards, delta rows and round
records scale with the cohort, and the region tier adds R model copies.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"
COHORT = 100
ROUNDS = 5
SMALL_POPULATION = 10_000
BIG_POPULATION = 1_000_000
RSS_GATE = 2.0  # peak at BIG_POPULATION < RSS_GATE x peak at SMALL_POPULATION

# The probe imports repro and nothing of the test harness, so the peak it
# prints is the job's.  argv: population, topology.
PROBE = f"""
import json, sys
import numpy as np
from repro.algorithms import make_algorithm
from repro.data import make_virtual_federation
from repro.fl.config import FLConfig
from repro.fl.trainer import run_federated
from repro.models import build_mlp
from repro.obs import peak_rss_bytes

population, topology = int(sys.argv[1]), sys.argv[2]
fed = make_virtual_federation(
    population, seed=1, similarity=0.2, samples_per_client=20, max_live=256
)
config = FLConfig(
    rounds={ROUNDS}, local_steps=2, batch_size=8, lr=0.1, seed=7,
    sample_ratio={COHORT} / population, sampler="reservoir",
    history_mode="stream", eval_every={ROUNDS}, topology=topology,
)
history = run_federated(
    make_algorithm("rfedavg+", lam=1e-3), fed,
    lambda: build_mlp(
        fed.spec.flat_dim, fed.spec.num_classes,
        np.random.default_rng(0), (16,), feature_dim=8,
    ),
    config,
)
print(json.dumps({{
    "rounds": history.summary_dict()["num_records"],
    "materializations": fed.clients.materializations,
    "peak_rss_bytes": peak_rss_bytes(),
}}))
"""


def _probe(population: int, topology: str) -> dict:
    proc = subprocess.run(
        [
            sys.executable, "-W", "error::RuntimeWarning", "-c", PROBE,
            str(population), topology,
        ],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, f"probe({population}, {topology}) failed:\n{proc.stderr}"
    cell = json.loads(proc.stdout.splitlines()[-1])
    assert cell["rounds"] == ROUNDS
    # Shards render per sampled client, never per population member.
    assert cell["materializations"] <= COHORT * ROUNDS
    return cell


@pytest.fixture(scope="module")
def small_peak() -> int:
    return _probe(SMALL_POPULATION, "flat")["peak_rss_bytes"]


@pytest.mark.parametrize("topology", ["flat", "hier:8:4"])
def test_peak_rss_at_a_million_clients_stays_under_twice_ten_thousand(
    small_peak, topology
):
    ratio = _probe(BIG_POPULATION, topology)["peak_rss_bytes"] / small_peak
    assert ratio < RSS_GATE, (
        f"{BIG_POPULATION:,} clients ({topology}) peaked at {ratio:.2f}x "
        f"the {SMALL_POPULATION:,}-client flat run (gate < {RSS_GATE}x)"
    )
