"""Run with ``python -m pytest perfbench/tests -q`` from the repository root.

Tier-1's ``testpaths`` does not include this directory on purpose: the
smoke tests spawn worker and custodian processes and take seconds each.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

import perfbench  # noqa: E402,F401  (puts src/ on sys.path)
