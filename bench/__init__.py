"""The repo's end-to-end benchmark.

Five paper-setting workloads, one set of end-to-end metric names, and a
per-layer time budget from a separate traced run.  ``BENCHMARK.json`` at
the repo root is the machine-readable contract; ``bench/README.md``
explains the workloads, the metrics and how to read the budget.

    python -m bench once --workload NAME --seed S --seconds T --trace 0|1
    PYTHONPATH=src python -m bench run --seed S --out FILE
    python -m bench compare A.json B.json
    python -m bench agree

Nothing here imports :mod:`repro` (or numpy) at package-import time:
``bench once`` has to pin the BLAS thread pools *before* numpy loads.
"""
