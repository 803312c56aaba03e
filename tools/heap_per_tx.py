#!/usr/bin/env python3
"""Heap a deployment retains per offered transaction, by owning source line.

Builds a preset with :func:`repro.workloads.scenarios.build`, drives
``--rounds`` warm-up rounds (caches fill, lazy set-up finishes), then
``--windows`` windows of ``--rounds`` rounds each with a ``tracemalloc``
snapshot at every boundary, and prints per window what the process kept —
bytes per offered transaction in total and for the largest owners
(``file:line``, allocation count).  This is the table PERFORMANCE.md's
"Where the memory goes" quotes.

Usage::

    PYTHONPATH=src python tools/heap_per_tx.py paper-default --host net --rounds 40

With ``--budget B`` the exit status is 1 if the last window retains more
than ``B`` bytes per offered transaction (the nightly job gates the
networked figure this way).  With two or more windows it is also 1 unless
the least window of the later half retains at most ``FLATNESS`` times the
least of the earlier half: a structure that grows faster than linearly
with history lifts every later window.  The *least* window, because ``set`` and ``dict`` tables grow
in steps — a window in which the id sets of every replica quadruple reads
half as much again as its neighbours, on a run that is perfectly linear
(the nightly soak runs ``durable-soak --rounds 50 --windows 8``).
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import pathlib
import sys
import tracemalloc
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: The later half's least window may retain this many times the earlier
#: half's before the run fails.
FLATNESS = 1.1

#: Owners printed per window.
TOP = 15


class Owner(NamedTuple):
    where: str  #: ``file:line`` of the allocating statement
    bytes_per_tx: float
    blocks: int  #: allocations alive at the window's end, less those at its start


class Window(NamedTuple):
    bytes_per_tx: float
    owners: list[Owner]  #: largest first


def _by_line(snapshot: tracemalloc.Snapshot) -> dict[str, tuple[int, int]]:
    """``file:line -> (bytes, blocks)`` alive in ``snapshot``, less this tool's own."""
    ours = (tracemalloc.__file__, __file__)
    out = {}
    for stat in snapshot.statistics("lineno"):
        frame = stat.traceback[0]
        if frame.filename in ours:
            continue
        path = pathlib.Path(frame.filename)
        if ROOT in path.parents:
            path = path.relative_to(ROOT)
        out[f"{path}:{frame.lineno}"] = (stat.size, stat.count)
    return out


def measure(preset, rounds: int, windows: int = 1, seed: int = 0, owners: bool = False):
    """Drive ``preset`` for ``(1 + windows) * rounds`` rounds under ``tracemalloc``.

    Returns ``(deployment, [Window, ...])``; the deployment is not
    finalized, so a caller can still read what it holds.  The totals are
    read off ``tracemalloc.get_traced_memory`` and are exact; ``owners``
    adds the per-line table, which costs a snapshot per boundary.  A
    line owns what it *first* allocated: a block the interpreter recycles
    through a free list (small dict key tables, above all) stays booked
    to the statement that allocated it originally.
    """
    from repro.workloads.scenarios import build

    deployment, workload, scenario = build(preset, seed=seed)
    offered = rounds * scenario.batch
    out: list[Window] = []
    tracemalloc.start(1)
    try:
        base, before = 0, {}
        for index in range(1 + windows):
            for _ in range(rounds):
                deployment.run_round(workload.take(scenario.batch))
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            after = _by_line(tracemalloc.take_snapshot()) if owners else {}
            if index:
                grown = sorted(
                    (
                        Owner(
                            where,
                            (size - before.get(where, (0, 0))[0]) / offered,
                            blocks - before.get(where, (0, 0))[1],
                        )
                        for where, (size, blocks) in after.items()
                    ),
                    key=lambda owner: -owner.bytes_per_tx,
                )
                out.append(Window((held - base) / offered, grown))
            before = after
            # Read again: what this function itself now holds is not growth.
            base = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return deployment, out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("preset")
    parser.add_argument("--host", help="run the preset's shape on this host instead")
    parser.add_argument("--rounds", type=int, default=40, help="rounds per window")
    parser.add_argument("--windows", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--budget", type=float, help="fail if the last window retains more B per offered tx"
    )
    args = parser.parse_args(argv)

    from repro.workloads.scenarios import SCENARIOS

    scenario = SCENARIOS[args.preset]
    if args.host is not None:
        scenario = dataclasses.replace(scenario, host=args.host)
    _deployment, measured = measure(
        scenario, args.rounds, args.windows, args.seed, owners=True
    )
    for index, window in enumerate(measured, start=1):
        first = index * args.rounds + 1
        print(
            f"window {index} (rounds {first}-{first + args.rounds - 1}, "
            f"{scenario.batch} tx/round, host {scenario.host}): "
            f"{window.bytes_per_tx:,.0f} B retained per offered tx"
        )
        for owner in window.owners[:TOP]:
            print(f"  {owner.bytes_per_tx:9,.1f} B/tx  {owner.blocks:8d} blocks  {owner.where}")
    last = measured[-1].bytes_per_tx
    if args.budget is not None and last > args.budget:
        print(f"FAIL: the last window retains {last:,.0f} B/tx, over the budget of {args.budget:,.0f}")
        return 1
    half = len(measured) // 2
    if half:
        early = min(window.bytes_per_tx for window in measured[:half])
        late = min(window.bytes_per_tx for window in measured[-half:])
        if late > FLATNESS * early:
            print(
                f"FAIL: the later windows retain at least {late:,.0f} B/tx, more "
                f"than {FLATNESS} x the earlier ones' {early:,.0f}"
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
