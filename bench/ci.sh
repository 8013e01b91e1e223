#!/usr/bin/env bash
# The single entry CI calls: the bench's own tests (they include the
# --quick smoke over all five workloads), then `agree` — two full sets of
# runs of this commit, held to the benchmark's own bounds.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
python -m pytest bench/tests -q -p no:cacheprovider
python -m bench agree --seed "${BENCH_SEED:-0}"
