"""The round-state broadcast scales with the cohort, not the population.

Tables a task reads only at its own client's row — error-feedback
residuals (all rows resident or spilling), SCAFFOLD's client controls,
MOON's previous local models — travel as the cohort's rows.  The packed
state is therefore the same size for 64 and for 1 024 clients, and
building it never disturbs a spilling table.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import make_algorithm
from repro.core.delta import DeltaTable
from repro.data import ArrayDataset, DatasetSpec, FederatedDataset
from repro.fl import wire
from repro.fl.config import FLConfig
from tests.helpers import tiny_model_fn

COHORT = [3, 5, 8, 13, 21, 34, 55, 60]
REPORTED = list(range(0, 64, 2)) + [3, 5, 13, 55]  # cohort id 21 never reports
SPEC = "topk:0.05|qsgd:8"


def _wide_federation(num_clients: int) -> FederatedDataset:
    """One sample per client: wide enough to size tables, free to build."""
    gen = np.random.default_rng(0)
    spec = DatasetSpec(name="wide", kind="image", input_shape=(1, 4, 4), num_classes=2)
    x = gen.normal(size=(num_clients, 1, 4, 4))
    y = gen.integers(0, 2, num_clients)
    clients = [ArrayDataset(x[i : i + 1], y[i : i + 1]) for i in range(num_clients)]
    return FederatedDataset(spec=spec, clients=clients, test=ArrayDataset(x[:8], y[:8]))


def _populated(name: str, num_clients: int, **config):
    """A set-up algorithm whose own-row tables hold a row for every id
    in REPORTED (the same rows whatever the population)."""
    fed = _wide_federation(num_clients)
    algorithm = make_algorithm(name)
    algorithm.setup(tiny_model_fn(fed)(), fed, FLConfig(rounds=1, **config))
    gen = np.random.default_rng(1)
    for client in REPORTED:
        row = gen.normal(size=algorithm.model_size)
        if algorithm._residuals is not None:
            algorithm._residuals.update(client, row)
        if name == "scaffold":
            algorithm.client_controls[client] = row
        if name == "moon":
            algorithm._prev_params[client] = row
    return algorithm


CASES = {  # "dense": every row resident (no cap)
    "ef-dense": ("fedavg", dict(compression=SPEC)),
    "ef-sharded-spilling": ("fedavg", dict(compression=SPEC, state_cap=4)),
    "scaffold": ("scaffold", {}),
    "moon": ("moon", {}),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_state_size_follows_the_cohort_not_the_population(case):
    name, config = CASES[case]
    packed = {}
    for num_clients in (64, 1024):
        algorithm = _populated(name, num_clients, **config)
        packed[num_clients] = wire.pack_state(algorithm._worker_state(COHORT))
    assert packed[64] == packed[1024]
    row_bytes = algorithm.model_size * 8
    whole_vectors = 2 if name == "scaffold" else 1  # the model (+ the server control)
    assert len(packed[64]) <= (
        whole_vectors * row_bytes + len(COHORT) * (row_bytes + 16) + 4096
    )
    # A population-sized table would not fit under the cohort bound.
    assert len(packed[64]) < 64 * row_bytes


def test_state_grows_by_the_announced_headroom():
    """Once every cohort client has reported, the packed state has
    grown by exactly one row and its id per client that had not."""
    algorithm = _populated("fedavg", 64, compression=SPEC)
    before = len(wire.pack_state(algorithm._worker_state(COHORT)))
    missing = [c for c in COHORT if c not in REPORTED]
    assert missing
    for client in missing:
        algorithm._residuals.update(client, np.ones(algorithm.model_size))
    full = algorithm._worker_state(COHORT)
    assert len(wire.pack_state(full)) == before + len(missing) * (
        algorithm.model_size * 8 + 8
    )


def test_duplicate_and_unordered_cohort_ids_pack_once():
    algorithm = _populated("scaffold", 64)
    shuffled = list(reversed(COHORT)) + COHORT[:3]
    assert wire.pack_state(algorithm._worker_state(shuffled)) == wire.pack_state(
        algorithm._worker_state(COHORT)
    )


def test_building_the_broadcast_leaves_a_sharded_table_alone(tmp_path):
    table = DeltaTable(64, 5, max_resident=4, spill_dir=str(tmp_path))
    gen = np.random.default_rng(2)
    rows = {client: gen.normal(size=5) for client in range(0, 40, 2)}
    for client, row in rows.items():
        table.update(client, row)
    resident = list(table._rows)
    assert table.spilled_rows == len(rows) - 4 and len(resident) == 4

    def fingerprint():
        return list(table._rows), table.spilled_rows, table._spill._end, len(table._spill)

    before = fingerprint()
    for cohort in (resident, [0, 2, 4, resident[0]], [1, 3]):  # resident, spilled, unreported
        segments = table.cohort_segments("t.", cohort)
        ids = segments["t.ids"]
        assert list(ids) == sorted(c for c in set(cohort) if c in rows)
        for i, client in enumerate(ids):
            assert segments["t.rows"][i].tobytes() == rows[int(client)].tobytes()
        assert fingerprint() == before
