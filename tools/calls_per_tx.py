#!/usr/bin/env python3
"""Python-level calls a deployment makes per committed transaction.

Builds each preset with :func:`repro.workloads.scenarios.build` (obs
absent), drives its rounds and ``finalize()`` under ``cProfile`` and prints
committed transactions, the calls the profile recorded and their ratio —
the deterministic stand-in for a clock this host cannot hold (ROADMAP
item 1 (iii)), and the table PERFORMANCE.md's "Calls per committed
transaction" quotes — then, per preset, the 15 functions that make the
most calls per committed transaction, by the same per-code-object sum.
Every preset runs twice, each time in a fresh interpreter (a process's
first run also pays the lazy imports and warms the module-level caches,
so two runs in one process differ); the exit status is 1 if the two
counts of any preset differ.  ``--host H`` runs each preset's shape on
host ``H`` instead (``paper-default --host net`` is the networked round
at the in-process preset's size); such a row is named ``PRESET@H``, and
a ``PRESET@H`` argument names one directly.

``--check FILE`` is the gate: it measures every row of the last entry of
``FILE`` (``BENCH_calls_per_tx.json``) and the ``repro`` modules each
entry module loads, and exits 1 if any reads more than that entry, or if
this interpreter is not the CPython version the entry was recorded
under (counts are exact only within one version: re-record).
``--record FILE --commit REF`` appends an entry measured on this tree.

Usage::

    PYTHONPATH=src python tools/calls_per_tx.py paper-default durable-smoke sharded-quad --seed 1
    PYTHONPATH=src python tools/calls_per_tx.py paper-default --host net
    PYTHONPATH=src python tools/calls_per_tx.py --check BENCH_calls_per_tx.json
    PYTHONPATH=src python tools/calls_per_tx.py --record BENCH_calls_per_tx.json \
        --commit REF paper-default durable-smoke sharded-quad stream-smoke paper-default@net
"""

from __future__ import annotations

import argparse
import cProfile
import json
import platform
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

#: Functions listed per preset after the totals.
TOP = 15

#: Entry modules whose ``repro`` module count an entry records: the CLI
#: and a stand-alone custodian peer.
ENTRY_MODULES = ("repro.cli", "repro.network.custodian")


def total_calls(profile: cProfile.Profile) -> int:
    """Every call ``profile`` recorded, summed over its code objects.

    Not ``pstats.Stats(profile).total_calls``: pstats keys a function by
    (file, line, name), and every dataclass-generated ``__init__`` is
    ``<string>:2:__init__`` (every namedtuple ``__new__`` is
    ``<string>:1:__new__``), so its dict keeps one such code object's
    count and drops the rest — which one depends on entry order.
    """
    return sum(calls_by_function(profile).values())


def calls_by_function(profile: cProfile.Profile) -> Counter:
    """Calls per function label, summed over the code objects behind each."""
    counts: Counter = Counter()
    for entry in profile.getstats():
        code = entry.code
        if isinstance(code, str):  # a builtin: '<built-in method ...>'
            label = re.sub(r" at 0x[0-9a-f]+", "", code)
        else:
            path = code.co_filename.replace("\\", "/")
            _, in_src, rest = path.partition("/src/")
            where = rest if in_src else path.rsplit("/", 1)[-1]
            label = f"{where}:{code.co_firstlineno}({code.co_name})"
        counts[label] += entry.callcount
    return counts


def measure(preset: str, seed: int, host: str | None = None) -> tuple[int, Counter]:
    """``(committed tx, calls per function)`` of one profiled run of ``preset``."""
    import dataclasses

    from repro.workloads.scenarios import SCENARIOS, build

    scenario = SCENARIOS[preset]
    if host is not None:
        scenario = dataclasses.replace(scenario, host=host)
    deployment, workload, scenario = build(scenario, seed=seed)
    profile = cProfile.Profile()
    try:
        profile.enable()
        for _ in range(scenario.rounds):
            deployment.run_round(workload.take(scenario.batch))
        deployment.finalize()
        profile.disable()
        return deployment.committed_total, calls_by_function(profile)
    finally:
        deployment.close()


def fresh(row: str, seed: int) -> tuple[int, Counter]:
    """:func:`measure` of ``row`` (``PRESET`` or ``PRESET@HOST``) in a new interpreter."""
    preset, _, host = row.partition("@")
    child = [sys.executable, __file__, preset, "--seed", str(seed), "--once"]
    if host:
        child += ["--host", host]
    out = subprocess.run(child, check=True, capture_output=True, text=True).stdout
    committed, counts = json.loads(out)
    return committed, Counter(counts)


def module_count(module: str) -> int:
    """``repro`` modules loaded by importing ``module`` in a new interpreter."""
    script = (
        f"import sys\nimport {module}\n"
        "print(sum(m == 'repro' or m.startswith('repro.') for m in sys.modules))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], check=True, capture_output=True, text=True
    ).stdout
    return int(out)


def measure_rows(rows: list[str], seed: int) -> tuple[dict[str, tuple[int, Counter]], int]:
    """Each row measured twice, with the table printed; status 1 on disagreement."""
    status = 0
    runs = {}
    print(f"{'preset':<22}{'committed tx':>14}{'calls':>14}{'calls/tx':>12}")
    for row in rows:
        (committed, counts), again = fresh(row, seed), fresh(row, seed)
        calls = sum(counts.values())
        runs[row] = committed, counts
        per_tx = calls / committed if committed else float("nan")
        print(f"{row:<22}{committed:>14,}{calls:>14,}{per_tx:>12,.1f}")
        if (committed, calls) != (again[0], sum(again[1].values())):
            print(f"FAIL: {row} read {(committed, calls)} then "
                  f"{(again[0], sum(again[1].values()))}", file=sys.stderr)
            status = 1
    return runs, status


def print_top(runs: dict[str, tuple[int, Counter]]) -> None:
    for row, (committed, counts) in runs.items():
        print(f"\n{row}: top {TOP} functions by calls per committed tx")
        for label, calls in counts.most_common(TOP):
            per_tx = calls / committed if committed else float("nan")
            print(f"{per_tx:>10,.1f}  {label}")


def check(path: Path) -> int:
    """Exit status of the gate: 0 iff nothing reads above the last entry."""
    last = json.loads(path.read_text())["entries"][-1]
    here = platform.python_version()
    if last["python"] != here:
        print(f"FAIL: {path.name}'s last entry ({last['commit']}) was recorded "
              f"under CPython {last['python']}, this is {here}: call counts are "
              f"exact only within one version, so re-record the entry "
              f"(--record, in a commit that changes nothing else)", file=sys.stderr)
        return 1
    runs, status = measure_rows(list(last["presets"]), last["seed"])
    print(f"\nagainst {last['commit']}:")
    for row, (committed, counts) in runs.items():
        want = last["presets"][row]
        calls = sum(counts.values())
        # calls / committed > want_calls / want_committed, in integers
        rose = calls * want["committed"] > want["calls"] * committed
        print(f"{row:<22}{want['calls'] / want['committed']:>12,.1f} -> "
              f"{calls / committed:>10,.1f}  {'ROSE' if rose else 'ok'}")
        if rose:
            status = 1
    for module, want in last["modules"].items():
        got = module_count(module)
        rose = got > want
        print(f"{'import ' + module:<34}{want:>4} -> {got:>4} repro modules  "
              f"{'ROSE' if rose else 'ok'}")
        if rose:
            status = 1
    if status:
        print(f"FAIL: a count above {path.name}'s last entry; a change that "
              f"raises one appends an entry (--record) and says why", file=sys.stderr)
    return status


def record(path: Path, commit: str, rows: list[str], seed: int) -> int:
    """Append an entry measured on this tree to ``path``."""
    runs, status = measure_rows(rows, seed)
    if status:
        return status
    data = json.loads(path.read_text()) if path.exists() else {"entries": []}
    data["entries"].append({
        "commit": commit,
        "python": platform.python_version(),
        "seed": seed,
        "modules": {module: module_count(module) for module in ENTRY_MODULES},
        "presets": {
            row: {
                "committed": committed,
                "calls": sum(counts.values()),
                "calls_per_tx": round(sum(counts.values()) / committed, 1),
                "top": dict(counts.most_common(TOP)),
            }
            for row, (committed, counts) in runs.items()
        },
    })
    path.write_text(json.dumps(data, indent=1) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("presets", nargs="*", metavar="PRESET")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--host", help="run each preset's shape on this host instead")
    parser.add_argument("--check", type=Path, metavar="FILE",
                        help="fail if a count rises above FILE's last entry")
    parser.add_argument("--record", type=Path, metavar="FILE",
                        help="append an entry for this tree to FILE")
    parser.add_argument("--commit", help="the commit a --record entry names")
    parser.add_argument("--once", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.once:  # the child: one measurement, as JSON on stdout
        print(json.dumps(measure(args.presets[0], args.seed, args.host)))
        return 0
    if args.check is not None:
        return check(args.check)
    if not args.presets:
        parser.error("name at least one PRESET (or --check FILE)")
    rows = [f"{p}@{args.host}" if args.host and "@" not in p else p for p in args.presets]
    if args.record is not None:
        if not args.commit:
            parser.error("--record needs --commit")
        return record(args.record, args.commit, rows, args.seed)
    runs, status = measure_rows(rows, args.seed)
    print_top(runs)
    return status


if __name__ == "__main__":
    sys.exit(main())
