"""Report formatting tests."""

import numpy as np

from repro.analysis.fairness import fairness_report
from repro.experiments.report import (
    display_name,
    format_accuracy_table,
    format_comm_table,
    format_rounds_table,
)
from repro.experiments.runner import RunResult
from repro.fl.metrics import History, RoundRecord


def _result(name, accs):
    result = RunResult(algorithm=name)
    hist = History(algorithm=name)
    for i, acc in enumerate(accs):
        hist.append(
            RoundRecord(round_idx=i, train_loss=1.0 - acc, test_accuracy=acc)
        )
    result.histories.append(hist)
    return result


def test_display_names_match_paper():
    assert display_name("rfedavg+") == "rFedAvg+"
    assert display_name("qfedavg") == "q-FedAvg"
    assert display_name("unknown") == "unknown"


def test_accuracy_table_contains_all_methods_and_settings():
    columns = {
        "Sim 0%": {"fedavg": _result("fedavg", [0.5]), "rfedavg+": _result("rfedavg+", [0.6])},
        "Sim 100%": {"fedavg": _result("fedavg", [0.9])},
    }
    table = format_accuracy_table(columns, title="Table I")
    assert "Table I" in table
    assert "FedAvg" in table and "rFedAvg+" in table
    assert "Sim 0%" in table and "Sim 100%" in table
    assert "-" in table  # missing cell placeholder
    assert "60.00" in table  # 0.6 as percent


def test_rounds_table():
    results = {
        "fedavg": _result("fedavg", [0.1, 0.6, 0.9]),
        "rfedavg+": _result("rfedavg+", [0.7, 0.8, 0.9]),
    }
    table = format_rounds_table(results, [0.5, 0.95], title="Fig. 10")
    assert "Fig. 10" in table
    assert ">max" in table  # fedavg never reaches... actually 0.9<0.95 both
    assert "acc>=0.50" in table


def test_comm_table():
    rows = {"rfedavg": {"CNN": 56160}, "rfedavg+": {"CNN": 2808}}
    table = format_comm_table(rows, title="Table III")
    assert "56,160" in table
    assert "2,808" in table


def test_summarize_fairness():
    """The fairness summary lives in repro.analysis.fairness."""
    acc = np.array([0.1, 0.5, 0.9, 1.0])
    summary = fairness_report(acc, worst_k=2)
    assert summary["min"] == 0.1
    assert summary["worst2_mean"] == 0.3
    assert summary["max"] == 1.0
