"""``BENCHMARK.json`` says what ``bench/`` measures, within the driver's limits."""

import json
import re

from bench.host import REPO_ROOT
from bench.metrics import END_TO_END, PER_LAYER
from bench.suite import RUN_SECONDS
from bench.workloads import WORKLOADS

SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def test_keys_command_and_paths():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "-m", "bench", "once"]
    assert SPEC["paths"] == ["bench"]
    assert SPEC["run_seconds"] == RUN_SECONDS


def test_workloads_match_the_registry():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for entry in SPEC["workloads"]:
        assert set(entry) == {"name", "why"}
        assert entry["why"] == WORKLOADS[entry["name"]].why
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]


def test_end_to_end_metrics_match_the_declarations():
    declared = [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert SPEC["end_to_end"] == declared
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in SPEC["end_to_end"])
    assert all(0 <= m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert max(m["bound"] for m in SPEC["end_to_end"]) == SPEC["end_to_end"][0]["bound"]


def test_per_layer_metrics_match_the_declarations():
    declared = [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER]
    assert SPEC["per_layer"] == declared
    assert 1 <= len(declared) <= 128


def test_names_and_units_are_within_the_limits_and_used_once():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    assert all(m["better"] in ("lower", "higher") for m in SPEC["end_to_end"] + SPEC["per_layer"])
