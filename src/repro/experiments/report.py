"""Paper-style text rendering of experiment results."""

from __future__ import annotations

from repro.experiments.runner import RunResult

# Canonical display names matching the paper's tables.
DISPLAY_NAMES = {
    "fedavg": "FedAvg",
    "fedprox": "FedProx",
    "scaffold": "Scaffold",
    "qfedavg": "q-FedAvg",
    "rfedavg": "rFedAvg",
    "rfedavg+": "rFedAvg+",
    "rfedavg_exact": "rFedAvg-exact",
}


def display_name(key: str) -> str:
    return DISPLAY_NAMES.get(key, key)


def format_accuracy_table(
    columns: dict[str, dict[str, RunResult]],
    title: str = "",
    tail: int = 3,
) -> str:
    """Render a Table I/II-shaped block: methods x settings.

    Args:
        columns: setting name -> (algorithm name -> RunResult).
        title: table caption line.
        tail: tail length for the reported accuracy average.
    """
    settings = list(columns)
    methods: list[str] = []
    for results in columns.values():
        for name in results:
            if name not in methods:
                methods.append(name)
    width = max(14, max(len(display_name(m)) for m in methods) + 2)
    lines = []
    if title:
        lines.append(title)
    header = "Method".ljust(width) + "".join(s.rjust(18) for s in settings)
    lines.append(header)
    lines.append("-" * len(header))
    for method in methods:
        row = display_name(method).ljust(width)
        for setting in settings:
            result = columns[setting].get(method)
            if result is None:
                row += "-".rjust(18)
                continue
            mean, std = result.accuracy_mean_std(tail)
            row += f"{100 * mean:6.2f} +/- {100 * std:4.2f}".rjust(18)
        lines.append(row)
    return "\n".join(lines)


def format_rounds_table(
    results: dict[str, RunResult], thresholds: list[float], title: str = ""
) -> str:
    """Fig. 10a/b: minimal rounds needed to reach each accuracy level."""
    lines = []
    if title:
        lines.append(title)
    header = "Method".ljust(16) + "".join(f"acc>={t:.2f}".rjust(12) for t in thresholds)
    lines.append(header)
    lines.append("-" * len(header))
    for name, result in results.items():
        row = display_name(name).ljust(16)
        for threshold in thresholds:
            rounds = result.rounds_to_reach(threshold)
            row += (str(rounds) if rounds is not None else ">max").rjust(12)
        lines.append(row)
    return "\n".join(lines)


def format_comm_table(rows: dict[str, dict[str, int]], title: str = "") -> str:
    """Table III-shaped block: per-method payload sizes in bytes."""
    lines = []
    if title:
        lines.append(title)
    settings = list(next(iter(rows.values())).keys()) if rows else []
    header = "Method".ljust(16) + "".join(s.rjust(16) for s in settings)
    lines.append(header)
    lines.append("-" * len(header))
    for name, cells in rows.items():
        row = display_name(name).ljust(16)
        for setting in settings:
            row += f"{cells[setting]:,}".rjust(16)
        lines.append(row)
    return "\n".join(lines)

