"""Import hygiene: what a process loads, and that no import order is load-bearing.

A custodian peer boots on :mod:`repro.network.custodian` alone, so the
modules it pulls in are pinned: the standard library (without numpy,
asyncio or ssl), ``repro.exceptions`` and the two package inits on the
way.  A shard pool's boot process
imports everything a worker's engines are built from once, before it
forks the workers, so its module set is pinned too.  Every package init and every
process entry module must also import as the *first* ``repro`` module of
an interpreter — a cycle that only an earlier import's order hides fails
here, naming the modules on it.
"""

from __future__ import annotations

import functools
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


#: What a boot process has imported when it forks: everything a
#: ``ShardHost`` is built from.  Three names are here only because a
#: package init re-exports them and perfbench, the benchmarks and the
#: tests import them from the package: ``repro.obs.export`` (``from
#: repro.obs import snapshot``) and, through ``repro.sharding``'s
#: ``ShardCoordinator``, ``repro.sharding.coordinator`` and
#: ``repro.parallel.pool``.  They load once, in the boot process.
BOOT_MODULES = [
    "repro",
    "repro.agents", "repro.agents.behaviors", "repro.agents.collector",
    "repro.agents.governor", "repro.agents.provider",
    "repro.audit", "repro.audit.auditor", "repro.audit.votes", "repro.audit.xshard",
    "repro.consensus", "repro.consensus.messages", "repro.consensus.pos",
    "repro.consensus.stake", "repro.consensus.stake_consensus",
    "repro.core", "repro.core.arguing", "repro.core.lifecycle",
    "repro.core.netengine", "repro.core.params", "repro.core.regret",
    "repro.core.reputation", "repro.core.rewards", "repro.core.roundcore",
    "repro.core.screening", "repro.core.updating",
    "repro.crypto", "repro.crypto.hashing", "repro.crypto.identity",
    "repro.crypto.merkle", "repro.crypto.signatures", "repro.crypto.vrf",
    "repro.exceptions",
    "repro.faults", "repro.faults.disk", "repro.faults.injector", "repro.faults.plan",
    "repro.ledger", "repro.ledger.block", "repro.ledger.chain", "repro.ledger.codec",
    "repro.ledger.properties", "repro.ledger.store", "repro.ledger.sync",
    "repro.ledger.transaction", "repro.ledger.validation",
    "repro.network", "repro.network.broadcast", "repro.network.reliable",
    "repro.network.simnet", "repro.network.topology",
    "repro.obs", "repro.obs.export", "repro.obs.registry", "repro.obs.spans",
    "repro.parallel", "repro.parallel.backend", "repro.parallel.pool",
    "repro.parallel.worker",
    "repro.sharding", "repro.sharding.assignment", "repro.sharding.coordinator",
    "repro.sharding.inbox", "repro.sharding.receipts",
    "repro.storage", "repro.storage.checkpoints", "repro.storage.durable",
    "repro.storage.handoff", "repro.storage.recovery", "repro.storage.segments",
    "repro.workloads", "repro.workloads.generator",
]


def test_boot_process_loads_the_engines_and_nothing_of_the_cli():
    loaded = _run(
        "import json, sys\n"
        "from multiprocessing import Pipe\n"
        "from repro.parallel.worker import boot_main\n"
        "driver, control = Pipe()\n"
        "boot_main(control, [])  # imports what it would, forks no worker\n"
        "assert driver.recv() == ('pids', {})\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    assert [name for name in loaded if name.split(".")[0] == "repro"] == BOOT_MODULES


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
