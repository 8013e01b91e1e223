"""Run with ``python -m pytest bench/tests -q`` from the repo root; these
tests are outside the tier-1 ``testpaths`` on purpose."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
for entry in (ROOT, ROOT / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))
