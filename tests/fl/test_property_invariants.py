"""Property-based invariant tests (seeded pure-stdlib generators).

Randomized but fully deterministic: every case derives its inputs from
``random.Random(seed)``, so failures replay exactly.  Covered invariants:

* aggregation weights normalize to 1 and the average is scale-invariant
  and stays inside the per-coordinate convex hull;
* per-``(round, client)`` rng streams are pairwise disjoint — the
  property the parallel engine's determinism contract rests on;
* ``History`` JSON round-trips exactly and ignores unknown keys;
* ledger upload accounting is independent of client completion order.
"""

from __future__ import annotations

import json
import random

import numpy as np
import pytest

from repro.algorithms import FedAvg
from repro.fl.comm import CommLedger
from repro.fl.compression import WireSize
from repro.fl.metrics import History, RoundRecord
from repro.fl.parallel import ClientUpdate
from repro.fl.server import weighted_average

CASES = range(20)


def _rng_vectors(gen: random.Random, count: int, dim: int) -> list[np.ndarray]:
    return [
        np.array([gen.uniform(-10.0, 10.0) for _ in range(dim)]) for _ in range(count)
    ]


# -- aggregation -----------------------------------------------------------------


@pytest.mark.parametrize("case", CASES)
def test_weighted_average_normalizes_and_is_scale_invariant(case):
    gen = random.Random(1000 + case)
    count = gen.randint(1, 8)
    dim = gen.randint(1, 12)
    vectors = _rng_vectors(gen, count, dim)
    weights = np.array([gen.uniform(0.1, 100.0) for _ in range(count)])

    averaged = weighted_average(vectors, weights)
    # Normalized weights sum to 1 -> explicit convex combination matches.
    norm = weights / weights.sum()
    assert abs(norm.sum() - 1.0) < 1e-12
    expected = np.sum([w * v for w, v in zip(norm, vectors)], axis=0)
    np.testing.assert_allclose(averaged, expected, rtol=1e-12)
    # Scaling every weight by the same constant changes nothing.
    scale = gen.uniform(0.01, 1000.0)
    np.testing.assert_allclose(averaged, weighted_average(vectors, weights * scale))


@pytest.mark.parametrize("case", CASES)
def test_weighted_average_stays_in_per_coordinate_hull(case):
    gen = random.Random(2000 + case)
    count = gen.randint(1, 6)
    dim = gen.randint(1, 10)
    vectors = _rng_vectors(gen, count, dim)
    weights = np.array([gen.uniform(0.0, 5.0) for _ in range(count)])
    weights[gen.randrange(count)] += 0.5  # keep the sum positive
    averaged = weighted_average(vectors, weights)
    stacked = np.stack(vectors)
    assert (averaged >= stacked.min(axis=0) - 1e-12).all()
    assert (averaged <= stacked.max(axis=0) + 1e-12).all()


# -- per-(round, client) randomness ----------------------------------------------


@pytest.mark.parametrize("case", CASES)
def test_client_rng_streams_are_disjoint_across_rounds_and_clients(case):
    gen = random.Random(3000 + case)
    algorithm = FedAvg()

    class _Config:
        seed = gen.randint(0, 2**16)

    algorithm.config = _Config()
    pairs = {(gen.randint(0, 200), gen.randint(0, 200)) for _ in range(12)}
    draws = {
        pair: tuple(algorithm.client_rng(*pair).random(4)) for pair in pairs
    }
    values = list(draws.values())
    assert len(set(values)) == len(values), "rng streams collide"
    # And the streams are reproducible: same (round, client) -> same draw.
    for pair, value in draws.items():
        assert tuple(algorithm.client_rng(*pair).random(4)) == value


# -- History persistence ---------------------------------------------------------


def _random_record(gen: random.Random, round_idx: int) -> RoundRecord:
    return RoundRecord(
        round_idx=round_idx,
        train_loss=gen.uniform(0.0, 5.0),
        test_accuracy=gen.choice([None, gen.uniform(0.0, 1.0)]),
        test_loss=gen.choice([None, gen.uniform(0.0, 5.0)]),
        reg_loss=gen.uniform(0.0, 1.0),
        wall_time_sec=gen.uniform(0.0, 10.0),
        bytes_down=gen.randint(0, 10**9),
        bytes_up=gen.randint(0, 10**9),
        num_selected=gen.randint(1, 64),
    )


@pytest.mark.parametrize("case", CASES)
def test_history_json_round_trip_survives_unknown_keys(case):
    gen = random.Random(4000 + case)
    history = History(algorithm=f"alg{case}")
    for round_idx in range(gen.randint(0, 6)):
        history.append(_random_record(gen, round_idx))
    history.final_accuracy = gen.choice([None, gen.uniform(0.0, 1.0)])

    data = json.loads(history.to_json())
    # Inject unknown keys at both levels (future fields, artifact extras).
    for _ in range(gen.randint(1, 4)):
        data[f"unknown_{gen.randint(0, 999)}"] = gen.random()
    for record in data["records"]:
        record[f"extra_{gen.randint(0, 999)}"] = [gen.random()]

    restored = History.from_json(json.dumps(data))
    assert restored.algorithm == history.algorithm
    assert restored.final_accuracy == history.final_accuracy
    assert restored.records == history.records  # dataclass equality, exact


# -- ledger order-independence (upload-accounting regression) ---------------------


def _updates(gen: random.Random, count: int) -> list[ClientUpdate]:
    return [
        ClientUpdate(
            client_id=cid,
            params=np.zeros(3),
            wire_size=WireSize(values=gen.randint(1, 5000)),
            task_loss=0.0,
            reg_loss=0.0,
            num_steps=1,
        )
        for cid in range(count)
    ]


@pytest.mark.parametrize("case", CASES)
def test_upload_charges_are_independent_of_completion_order(case):
    """Workers finish in arbitrary order; per-round ledger totals (and
    therefore History bytes) must not depend on it."""
    gen = random.Random(5000 + case)
    count = gen.randint(2, 8)
    updates = _updates(gen, count)
    selected = np.arange(count)

    def charge(update_order: list[ClientUpdate]) -> dict:
        algorithm = FedAvg()
        algorithm.ledger = CommLedger(4)
        algorithm._charge_uploads(selected, update_order)
        algorithm.ledger.end_round()
        return algorithm.ledger.round_bytes(0)

    in_order = charge(updates)
    shuffled = updates[:]
    gen.shuffle(shuffled)
    assert charge(shuffled) == in_order
    assert charge(list(reversed(updates))) == in_order
