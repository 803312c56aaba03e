#!/usr/bin/env python3
"""Tracked benchmark twins that no longer match what the code produces.

Runs ``pytest benchmarks --benchmark-disable`` in a copy of the checkout
(the run rewrites ``benchmarks/results/``), then the two full-scale
scripts that alone write E16's and E18's twins (``bench_shards.py
--workers 4`` and ``bench_streaming.py``), then compares each tracked
``BENCH_*.json`` twin with the one the runs wrote.  Two kinds of field
never count: ``meta`` (the run's duration and interpreter) and the
wall-clock or socket-timing fields a bench names when it writes the twin
(``emit(timing=...)``, kept in the twin's ``timing`` list).  Every other
difference is printed as ``<twin>: <field>``.

A field is a dotted path from the twin's root; a table row is named by
its first cell (by its index where two rows share one), so E17's chaos
wire bytes are ``tables.1.rows.bytes_out.chaos``.
A ``timing`` entry is a dotted glob that covers every field whose path
ends in it: ``ms/tx`` covers the column in every row, ``chaos.bytes_*``
the chaos run's byte counters and not the real run's.

Usage::

    python tools/fresh_twins.py

Exit status 1 if a bench run failed or any twin differs.
"""

from __future__ import annotations

import fnmatch
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: What the bench run reads, copied out of the checkout before it starts.
COPIED = ("src", "benchmarks", "pyproject.toml")

#: What the bench runs execute in the copy: the suite, then the scripts
#: that alone write a tracked twin at full scale (E16, E18).
RUNS = (
    ("-m", "pytest", "benchmarks", "--benchmark-disable", "-q", "-p", "no:cacheprovider"),
    ("benchmarks/bench_shards.py", "--workers", "4"),
    ("benchmarks/bench_streaming.py",),
)

#: Twin fields no comparison reads.
UNCOMPARED = ("meta", "timing")


def _children(node):
    """``(segment, child)`` pairs of a JSON node: a table's rows by their
    first cell where those are unique, every other list item by index."""
    if isinstance(node, dict):
        columns = node.get("columns")
        for key, value in node.items():
            if key == "rows" and columns:
                labels = [str(row.get(columns[0])) for row in value]
                if len(set(labels)) == len(labels):
                    value = dict(zip(labels, value))
            yield key, value
    else:
        yield from ((str(i), item) for i, item in enumerate(node))


def _covered(path: tuple[str, ...], timing) -> bool:
    for pattern in timing:
        parts = pattern.split(".")
        tail = path[-len(parts):]
        if len(tail) == len(parts) and all(map(fnmatch.fnmatchcase, tail, parts)):
            return True
    return False


def differences(tracked: dict, fresh: dict) -> list[str]:
    """The fields of two twins that differ, outside the uncompared ones."""
    timing = fresh.get("timing", ())
    found: list[str] = []

    def walk(old, new, path: tuple[str, ...]) -> None:
        if _covered(path, timing):
            return
        containers = (dict, list)
        if not (isinstance(old, containers) and type(old) is type(new)) or (
            isinstance(old, list) and len(old) != len(new)
        ):
            if old != new:
                found.append(".".join(path))
            return
        olds, news = dict(_children(old)), dict(_children(new))
        for key in sorted(olds.keys() | news.keys()):
            if key not in olds or key not in news:
                found.append(".".join((*path, key)))
            else:
                walk(olds[key], news[key], (*path, key))

    walk(
        {k: v for k, v in tracked.items() if k not in UNCOMPARED},
        {k: v for k, v in fresh.items() if k not in UNCOMPARED},
        (),
    )
    return found


def main() -> int:
    results = ROOT / "benchmarks" / "results"
    with tempfile.TemporaryDirectory() as scratch_dir:
        checkout = pathlib.Path(scratch_dir)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(
                    source, checkout / name,
                    ignore=shutil.ignore_patterns("__pycache__", "quick", ".pytest_cache"),
                )
            else:
                shutil.copy2(source, checkout / name)
        env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
        failed = [
            " ".join(args) for args in RUNS
            if subprocess.run([sys.executable, *args], cwd=checkout, env=env).returncode
        ]
        stale = []
        for path in sorted(results.glob("BENCH_*.json")):
            fresh = checkout / "benchmarks" / "results" / path.name
            fields = differences(
                json.loads(path.read_text()), json.loads(fresh.read_text())
            )
            for field in fields:
                print(f"{path.name}: {field}")
            if fields:
                stale.append(path.name)
    for args in failed:
        print(f"the bench run failed: python {args}")
    print(f"stale twins (regenerate them): {', '.join(stale)}" if stale else "every twin is fresh")
    return 1 if failed or stale else 0


if __name__ == "__main__":
    sys.exit(main())
