"""``bench run --quick``: every declared metric, finite, on every workload."""

import json
import math
import subprocess
import sys

from bench.host import REPO_ROOT
from bench.metrics import END_TO_END, FAILED_OPS_SHARE, PER_LAYER
from bench.workloads import WORKLOADS


def test_quick_run_reports_every_declared_metric(tmp_path):
    out = tmp_path / "quick.json"
    done = subprocess.run(
        [sys.executable, "-m", "bench", "run", "--quick", "--seed", "0", "--out", str(out)],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=300, check=False,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    result = json.loads(out.read_text())
    assert list(result["workloads"]) == list(WORKLOADS)
    for name, section in result["workloads"].items():
        for metric in END_TO_END:
            value = section["end_to_end"][metric.name]["median"]
            assert math.isfinite(value) and value > 0, (name, metric.name, value)
        for metric in PER_LAYER:
            value = section["per_layer"][metric.name]["value"]
            assert math.isfinite(value), (name, metric.name, value)
        assert section[FAILED_OPS_SHARE] == 0
        assert all(check["ok"] for check in section["checks"]), (name, section["checks"])
        rows = section["budget"]["rows"]
        assert math.isclose(sum(rows.values()), section["budget"]["wall_s"], rel_tol=1e-6)
    for name in WORKLOADS:
        assert f"== {name}" in done.stdout
    assert "budget.unattributed_share" in done.stdout
