"""perfbench — the repository's one wall-clock benchmark.

Four execution-shape workloads, two bounded end-to-end metrics with three
demoted ones beside them, a per-layer traced run; see
``perfbench/README.md``.  ``BENCHMARK.json`` at the repository root
is the catalogue, ``python -m perfbench run`` the one command.

Importing the package makes ``repro`` importable from a plain checkout
(``src/`` is not installed), so ``python3 -m perfbench`` needs no
``PYTHONPATH``; spawned shard workers inherit ``sys.path`` and custodian
processes get theirs from ``repro`` itself.
"""

import sys
from pathlib import Path

#: The checkout, and the one directory the benchmark writes into (results,
#: traces, scratch stores); it ignores its own contents.
ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"

_SRC = ROOT / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
