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
counts of any preset differ.

Usage::

    PYTHONPATH=src python tools/calls_per_tx.py paper-default durable-smoke sharded-quad --seed 1
"""

from __future__ import annotations

import argparse
import cProfile
import json
import re
import subprocess
import sys
from collections import Counter

#: Functions listed per preset after the totals.
TOP = 15


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


def measure(preset: str, seed: int) -> tuple[int, Counter]:
    """``(committed tx, calls per function)`` of one profiled run of ``preset``."""
    from repro.workloads.scenarios import build

    deployment, workload, scenario = build(preset, seed=seed)
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("presets", nargs="+", metavar="PRESET")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--once", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.once:  # the child: one measurement, as JSON on stdout
        print(json.dumps(measure(args.presets[0], args.seed)))
        return 0

    def fresh(preset: str) -> tuple[int, int, Counter]:
        child = [sys.executable, __file__, preset, "--seed", str(args.seed), "--once"]
        out = subprocess.run(child, check=True, capture_output=True, text=True).stdout
        committed, counts = json.loads(out)
        return committed, sum(counts.values()), Counter(counts)

    status = 0
    runs = {}
    print(f"{'preset':<18}{'committed tx':>14}{'calls':>14}{'calls/tx':>12}")
    for preset in args.presets:
        (committed, calls, counts), again = fresh(preset), fresh(preset)
        runs[preset] = committed, counts
        per_tx = calls / committed if committed else float("nan")
        print(f"{preset:<18}{committed:>14,}{calls:>14,}{per_tx:>12,.1f}")
        if (committed, calls) != again[:2]:
            print(f"FAIL: {preset} read {(committed, calls)} then {again[:2]}",
                  file=sys.stderr)
            status = 1
    for preset, (committed, counts) in runs.items():
        print(f"\n{preset}: top {TOP} functions by calls per committed tx")
        for label, calls in counts.most_common(TOP):
            per_tx = calls / committed if committed else float("nan")
            print(f"{per_tx:>10,.1f}  {label}")
    return status


if __name__ == "__main__":
    sys.exit(main())
