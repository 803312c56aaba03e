"""Import hygiene: what a process loads, and that no import order is load-bearing.

A custodian peer boots on :mod:`repro.network.custodian` alone, so the
modules it pulls in are pinned: the standard library, ``repro.exceptions``
and the two package inits on the way.  Every package init and every
process entry module must also import as the *first* ``repro`` module of
an interpreter — a cycle that only an earlier import's order hides fails
here, naming the modules on it.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

_REPO = pathlib.Path(__file__).resolve().parent.parent
_SRC = _REPO / "src"

#: Entry modules of the processes this package starts.
ENTRY_MODULES = ("repro.network.custodian", "repro.parallel.worker", "repro.cli")


def _run(script: str) -> object:
    """Run ``script`` in a fresh interpreter on ``src``; its stdout as JSON."""
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    return json.loads(out)


def test_custodian_loads_only_the_standard_library_and_exceptions():
    loaded = _run(
        "import json, sys\n"
        "import repro.network.custodian\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    assert [name for name in loaded if name.split(".")[0] == "repro"] == [
        "repro", "repro.exceptions", "repro.network", "repro.network.custodian",
    ]
    assert not [name for name in loaded if name.split(".")[0] == "numpy"]


def test_every_package_init_and_entry_module_imports_first():
    packages = sorted(
        ".".join(init.parent.relative_to(_SRC).parts)
        for init in (_SRC / "repro").rglob("__init__.py")
    )
    failures = _run(
        "import importlib, json, sys, traceback\n"
        f"names = {packages + list(ENTRY_MODULES)!r}\n"
        "failures = {}\n"
        "for name in names:\n"
        "    for loaded in [m for m in sys.modules if m.split('.')[0] == 'repro']:\n"
        "        del sys.modules[loaded]\n"
        "    try:\n"
        "        importlib.import_module(name)\n"
        "    except Exception:\n"
        "        failures[name] = traceback.format_exc()\n"
        "print(json.dumps(failures))\n"
    )
    assert len(packages) >= 19
    assert failures == {}, "\n".join(failures.values())
