"""Import hygiene: what a process loads, and that no import order is load-bearing.

The package runs on the standard library alone: every ``import`` under
``src/repro``, a lazy one inside a function included, names a
``sys.stdlib_module_names`` module or ``repro`` itself.  A custodian
peer boots on :mod:`repro.network.custodian` alone, so the modules it
pulls in are pinned: the standard library (without numpy, asyncio or
ssl), ``repro.exceptions`` and the two package inits on the way.  Every
module but ``repro.__main__`` must also import as the *first* ``repro``
module of an interpreter — a cycle that only an earlier import's order
hides fails here, naming the modules on it.  Each name has one import
path, its defining module: a package init holds only its docstring, bar
the three in ``REEXPORTING_INITS``.
"""

from __future__ import annotations

import ast
import functools
import json
import os
import pathlib
import subprocess
import sys

_REPO = pathlib.Path(__file__).resolve().parent.parent
_SRC = _REPO / "src"

#: Entry modules of the processes this package starts.
ENTRY_MODULES = ("repro.network.custodian", "repro.cli")


def _run(script: str) -> object:
    """Run ``script`` in a fresh interpreter on ``src``; its stdout as JSON."""
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    return json.loads(out)


@functools.cache
def _custodian_modules() -> tuple[str, ...]:
    return tuple(_run(
        "import json, sys\n"
        "import repro.network.custodian\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    ))


def test_custodian_loads_only_the_standard_library_and_exceptions():
    loaded = _custodian_modules()
    assert [name for name in loaded if name.split(".")[0] == "repro"] == [
        "repro", "repro.exceptions", "repro.network", "repro.network.custodian",
    ]
    assert not [name for name in loaded if name.split(".")[0] == "numpy"]


def test_custodian_loads_neither_asyncio_nor_ssl():
    loaded = _custodian_modules()
    assert not [name for name in loaded if name.split(".")[0] in ("asyncio", "ssl")]


def _imported_roots(path: pathlib.Path):
    """The top-level package of every absolute ``import`` in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_imports_only_the_standard_library():
    allowed = set(sys.stdlib_module_names) | {"repro"}
    offenders = sorted(
        f"{path.relative_to(_SRC)}: {root}"
        for path in (_SRC / "repro").rglob("*.py")
        for root in _imported_roots(path)
        if root not in allowed
    )
    assert offenders == []


#: What only a networked, sharded, streaming, faulted or durable run loads.
LAZY_STACKS = (
    "repro.core.netengine", "repro.sharding", "repro.streaming",
    "repro.faults", "repro.storage", "repro.parallel",
)


def _repro_modules(module: str) -> list[str]:
    """The ``repro`` modules a fresh interpreter holds after importing ``module``."""
    loaded = _run(
        "import json, sys\n"
        f"import {module}\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    return [name for name in loaded if name.split(".")[0] == "repro"]


def test_scenario_registry_loads_no_host_stack():
    # perfbench preloads the registry before it measures peak RSS, so what
    # it pulls in is paid by every in-process workload.
    ours = _repro_modules("repro.workloads.scenarios")
    assert not [name for name in ours if name.startswith(LAZY_STACKS)]
    assert len(ours) == 47, ours


def test_cli_loads_no_host_stack():
    # Every ``repro`` process starts here; a host's stack loads when built.
    ours = _repro_modules("repro.cli")
    assert not [name for name in ours if name.startswith(LAZY_STACKS)]
    assert len(ours) == 51, ours


#: Package inits that still re-export: perfbench imports through them.
REEXPORTING_INITS = ("repro.obs", "repro.sharding", "repro.storage")


def _module_name(path: pathlib.Path) -> str:
    parts = path.relative_to(_SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def test_package_inits_hold_only_their_docstring():
    offenders = []
    for init in sorted((_SRC / "repro").rglob("__init__.py")):
        package = _module_name(init)
        if package in REEXPORTING_INITS:
            continue
        body = ast.parse(init.read_text(encoding="utf-8")).body
        assert body and isinstance(body[0], ast.Expr), f"{package} has no docstring"
        # The root init also keeps ``__version__``, which imports nothing.
        rest = [node for node in body[1:] if not ast.unparse(node).startswith("__version__ =")]
        if rest:
            offenders.append(f"{package}: line {rest[0].lineno}")
    assert offenders == []


def test_every_package_init_and_entry_module_imports_first():
    modules = sorted(
        _module_name(path) for path in (_SRC / "repro").rglob("*.py")
        if path.name != "__main__.py"
    )
    assert set(ENTRY_MODULES) <= set(modules)
    failures = _run(
        "import importlib, json, sys, traceback\n"
        f"names = {modules!r}\n"
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
    assert len(modules) >= 110
    assert failures == {}, "\n".join(failures.values())
