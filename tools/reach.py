#!/usr/bin/env python3
"""Functions under ``src/repro`` that no run of the system enters.

Runs the system's own traffic — every preset through ``repro run`` (plus
the pool, the segment log, ``repro recover``, and the options that select
code a preset's defaults skip), the examples, the
benchmark modules, E16's full-scale pool sweep, ``tools/heap_per_tx.py``
and the four perfbench
workloads — under a profiler that records each function the first time a
process enters it, forked children included, and lists every function
none of them entered.  Such a function is reached by tests or by nothing:
delete it, give it a run, or name it in :data:`ALLOWED` with the reason
it stays.  A stub is a declaration, not code, and is never listed: a
``typing.Protocol``'s methods, and abstract methods whose body only
raises ``NotImplementedError``.

Usage::

    python tools/reach.py

Prints the report — each run's exit status and time, then the listing —
and writes it to ``reach-report.txt``.  The exit status is 1 if a run
failed, a function is listed, or an :data:`ALLOWED` entry is stale (a
run now reaches everything it names, or it names nothing).  The runs
work in a copy of the checkout, so the benchmark twins they rewrite
leave the tree as it was.
"""

from __future__ import annotations

import ast
import json
import os
import pathlib
import runpy
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: What the runs read, copied out of the checkout before they start.
COPIED = ("src", "benchmarks", "examples", "tools", "perfbench", "pyproject.toml", "BENCHMARK.json")

#: Functions no run enters that stay, each with its reason.  An entry is
#: ``path``, ``path::Qualname`` or ``path::Qualname.prefix``; it covers
#: every function its name or a dotted prefix of it names.
ALLOWED: dict[str, str] = {
    "repro/agents/behaviors.py::FlipFlopBehavior.should_forge":
        "the CollectorBehavior forge hook; the example runs this behaviour in the game, which never forges",
    "repro/audit/auditor.py::SlotTable.uploads":
        "rebuilds a slot's uploads to convict; no run's collector equivocates (tests plant TwoFacedCollectorBehavior)",
    "repro/audit/xshard.py::CrossShardAuditor._record":
        "books a cross-shard atomicity violation; every run's audit is clean",
    "repro/byzantine/strategies.py::ColludingCollectorBehavior.label_for":
        "the provider-blind CollectorBehavior hook; engines ask a cartel member's label_for_tx",
    "repro/byzantine/strategies.py::TwoFacedCollectorBehavior":
        "the collector-equivocation adversary the Byzantine tests plant against the auditor",
    "repro/cli.py::_cmd_serve":
        "`repro serve` goes with ROADMAP item 1b, once perfbench/README stops naming it",
    "repro/core/lifecycle.py::NodeLifecycle.release_quarantine":
        "readmission after quarantine, which a tests/test_parity.py row replays",
    "repro/core/params.py::validate_discounts":
        "the paper's beta/gamma inequality chain, which ROADMAP item 18 checks A2 against",
    "repro/core/reputation.py::SparseWeightMap.__delitem__":
        "MutableMapping requires it",
    "repro/core/roundcore.py::RoundCore.committed_total":
        "read by tools/calls_per_tx.py, the CI call gate, whose cProfile displaces this profiler",
    "repro/crypto/hashing.py::hash_many":
        "a perfbench SPAN_TABLE row names it, and only a benchmark PR may change perfbench",
    "repro/crypto/identity.py::IdentityManager.verify_batch":
        "a perfbench SPAN_TABLE row names it, and only a benchmark PR may change perfbench",
    "repro/exceptions.py":
        "constructors of the structured errors raised on give-up paths",
    "repro/faults/disk.py::_bit_flip":
        "a DiskFaultPlan kind of the nightly disk_chaos matrix; E15 injects only torn_record",
    "repro/faults/disk.py::_corrupt_checkpoint":
        "a DiskFaultPlan kind of the nightly disk_chaos matrix; E15 injects only torn_record",
    "repro/faults/disk.py::_lost_fsync":
        "a DiskFaultPlan kind of the nightly disk_chaos matrix; E15 injects only torn_record",
    "repro/faults/disk.py::_missing_checkpoint":
        "a DiskFaultPlan kind of the nightly disk_chaos matrix; E15 injects only torn_record",
    "repro/faults/disk.py::_truncated_segment":
        "a DiskFaultPlan kind of the nightly disk_chaos matrix; E15 injects only torn_record",
    "repro/faults/injector.py::FaultInjector._window_event":
        "partition windows (FaultPlan.with_partition), which fault tests schedule and no preset does",
    "repro/network/custodian.py::serve":
        "`repro serve` and `python -m repro.network.custodian`; ROADMAP item 1b decides their fate",
    "repro/network/custodian.py::start_server_thread":
        "the in-process custodian peer transport tests and driver scripts start",
    "repro/obs/export.py":
        "the Prometheus exporter tests/test_obs_export_pin.py pins; ROADMAP item 4 picks what a run writes",
    "repro/parallel/pool.py::ParallelBackend._crash":
        "the structured fault a dead or hung worker raises; the chaos tests kill workers",
    "repro/parallel/pool.py::ParallelBackend.restart_worker":
        "the worker recovery path the chaos tests drive",
    "repro/storage/segments.py::_scan_range":
        "compaction's fallback for a segment whose range the manifest lacks",
    "repro/streaming/soak.py":
        "the nightly chaos-soak step runs it",
    "repro/streaming/universe.py::CollectorMembers":
        "the lazy membership's sequence methods, which only a forging collector reads; no stream preset forges",
    "repro/workloads/arrivals.py::BurstyArrivals":
        "the flash-sale arrivals of the nightly chaos soak",
}


class Function(NamedTuple):
    path: str  #: under ``src``, e.g. ``repro/core/rewards.py``
    line: int  #: the first decorator's line, else the ``def``'s: ``co_firstlineno``
    qualname: str
    lines: int  #: its own span, decorators included

    @property
    def name(self) -> str:
        return f"{self.path}::{self.qualname}"


class Run(NamedTuple):
    command: list[str]
    status: int
    seconds: float
    output: str  #: stdout and stderr, kept only when the run failed


def _is_stub(node: ast.FunctionDef) -> bool:
    """A declaration: a docstring, then nothing, ``...`` or ``raise NotImplementedError``."""
    body = node.body[1:] if ast.get_docstring(node) is not None else node.body
    if not body:
        return True
    if len(body) > 1:
        return False
    (stmt,) = body
    if isinstance(stmt, ast.Expr):
        return getattr(stmt.value, "value", None) is Ellipsis
    if isinstance(stmt, ast.Raise) and stmt.exc is not None:
        exc = stmt.exc.func if isinstance(stmt.exc, ast.Call) else stmt.exc
        return getattr(exc, "id", None) == "NotImplementedError"
    return False


def functions(package: pathlib.Path) -> dict[tuple[str, int], Function]:
    """Every function defined under ``package``, keyed ``(path, line)``, less stubs."""
    out: dict[tuple[str, int], Function] = {}

    def walk(node: ast.AST, prefix: str, path: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.", path)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                qualname = prefix + child.name
                if not _is_stub(child):
                    out[path, line] = Function(path, line, qualname, child.end_lineno - line + 1)
                walk(child, f"{qualname}.<locals>.", path)
            else:
                walk(child, prefix, path)

    for source in sorted(package.rglob("*.py")):
        path = source.relative_to(package.parent).as_posix()
        walk(ast.parse(source.read_text(encoding="utf-8"), str(source)), "", path)
    return out


def _record(package: str, record_dir: str) -> None:
    """Write each function under ``package`` to ``record_dir/<pid>.txt`` when first entered.

    At once, not at exit: a child the driver stops with a signal never
    exits.  A fork writes to its own file and skips what its parent wrote.
    """
    seen: dict[int, object] = {}  # id(code) -> code, kept alive so no id is reused
    out = [-1]

    def open_record() -> None:
        if out[0] >= 0:
            os.close(out[0])
        out[0] = os.open(
            os.path.join(record_dir, f"{os.getpid()}.txt"),
            os.O_WRONLY | os.O_CREAT | os.O_APPEND,
        )

    def profile(frame, event, _arg) -> None:
        if event != "call":
            return
        code = frame.f_code
        if id(code) in seen:
            return
        seen[id(code)] = code
        if code.co_filename.startswith(package):
            os.write(out[0], f"{code.co_filename}\t{code.co_firstlineno}\n".encode())

    open_record()
    os.register_at_fork(after_in_child=open_record)
    threading.setprofile(profile)
    sys.setprofile(profile)


def _child() -> None:
    """Entry of a traced run: ``PACKAGE RECORD_DIR (-m MODULE | SCRIPT) ARGS...``."""
    package, record_dir, *command = sys.argv[1:]
    sys.path.pop(0)  # this tool's directory
    _record(package, record_dir)
    if command[0] == "-m":
        sys.argv = command[1:]
        runpy.run_module(command[1], run_name="__main__", alter_sys=True)
    else:
        sys.argv = command
        sys.path[0] = os.path.dirname(os.path.abspath(command[0]))
        runpy.run_path(command[0], run_name="__main__")


def trace(
    commands: list[list[str]], package: pathlib.Path, cwd: pathlib.Path
) -> tuple[list[Run], set[tuple[str, int]]]:
    """Run each command traced, in ``cwd``; return the runs and the ``(path, line)`` reached."""
    boot = (
        f"import sys; sys.path.insert(0, {str(pathlib.Path(__file__).parent)!r}); "
        "import reach; reach._child()"
    )
    env = {**os.environ, "PYTHONPATH": str(package.parent)}
    runs = []
    with tempfile.TemporaryDirectory() as record_dir:
        for command in commands:
            start = time.perf_counter()
            done = subprocess.run(
                [sys.executable, "-c", boot, str(package) + os.sep, record_dir, *command],
                cwd=cwd, env=env, capture_output=True, text=True, check=False,
            )
            output = "" if done.returncode == 0 else done.stdout + done.stderr
            runs.append(Run(command, done.returncode, time.perf_counter() - start, output))
        reached = set()
        for record in pathlib.Path(record_dir).iterdir():
            for row in record.read_text(encoding="utf-8").splitlines():
                filename, line = row.split("\t")
                path = pathlib.Path(filename).relative_to(package.parent).as_posix()
                reached.add((path, int(line)))
    return runs, reached


def _covers(entry: str, function: Function) -> bool:
    name = function.name
    return name == entry or name.startswith(entry + ".") or name.startswith(entry + "::")


def verdict(
    defined: dict[tuple[str, int], Function],
    reached: set[tuple[str, int]],
    allowed: dict[str, str],
) -> tuple[list[Function], list[Function], list[tuple[str, str]]]:
    """The functions no run entered, those of them no entry covers, and
    each stale entry with why it is stale."""
    unreached = [defined[key] for key in sorted(defined.keys() - reached)]
    listed = [f for f in unreached if not any(_covers(entry, f) for entry in allowed)]
    stale = []
    for entry in allowed:
        if not any(_covers(entry, f) for f in defined.values()):
            stale.append((entry, "names nothing"))
        elif not any(_covers(entry, f) for f in unreached):
            stale.append((entry, "a run reaches everything it names"))
    return unreached, listed, stale


def traffic(checkout: pathlib.Path, scratch: pathlib.Path) -> list[list[str]]:
    """The runs of the system: every command is what a user or CI runs."""
    sys.path.insert(0, str(checkout / "src"))
    from repro.workloads.scenarios import scenario_names

    ledger = str(scratch / "ledger")
    catalogue = json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [
        *(["-m", "repro", "run", name] for name in scenario_names()),
        ["-m", "repro", "run", "sharded-smoke", "--workers", "2", "--misreporters", "1"],
        ["-m", "repro", "run", "durable-smoke", "--dir", ledger],
        ["-m", "repro", "recover", "--dir", ledger],
        # Options that select code a preset's defaults skip.
        ["-m", "repro", "run", "durable-smoke", "--round-delay", "0.01"],
        *(["-m", "repro", "run", name, "--batch", "0"] for name in ("smoke", "durable-smoke")),
        *([str(script.relative_to(checkout))] for script in sorted(checkout.glob("examples/*.py"))),
        ["-m", "pytest", "benchmarks", "-q", "--benchmark-disable", "-p", "no:cacheprovider"],
        # E16 at full scale: its pool runs finish with the recovery drain.
        ["benchmarks/bench_shards.py", "--workers", "4"],
        ["tools/heap_per_tx.py", "paper-default", "--host", "net", "--rounds", "10"],
        *(
            ["-m", "perfbench", "run", "--workload", workload["name"], "--seed", "1",
             "--seconds", "3", "--trace", "0", "--out", str(scratch / "perfbench.json")]
            for workload in catalogue["workloads"]
        ),
    ]


def report(
    runs: list[Run], defined: dict, unreached: list[Function], listed: list[Function],
    stale: list[tuple[str, str]],
) -> str:
    lines = ["status  seconds  run"]
    for run in runs:
        lines.append(f"{run.status:6d}  {run.seconds:7.1f}  {' '.join(run.command)}")
        lines.extend(f"    {row}" for row in run.output.splitlines()[-30:])
    lines.append(
        f"\n{len(unreached)} of {len(defined)} functions under src/repro "
        f"({sum(f.lines for f in unreached):,} of {sum(f.lines for f in defined.values()):,} "
        f"lines) entered by no run; {len(ALLOWED)} allowlist entries cover "
        f"{len(unreached) - len(listed)} of them."
    )
    if listed:
        lines.append(f"{len(listed)} not allowed ({sum(f.lines for f in listed):,} lines):")
        lines.extend(f"  {f.path}:{f.line}  {f.qualname}  ({f.lines} lines)" for f in listed)
    if stale:
        lines.append("stale allowlist entries:")
        lines.extend(f"  {entry}: {why}" for entry, why in stale)
    return "\n".join(lines)


def main() -> int:
    with tempfile.TemporaryDirectory() as scratch_dir:
        scratch = pathlib.Path(scratch_dir)
        checkout = scratch / "checkout"
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(
                    source, checkout / name,
                    ignore=shutil.ignore_patterns("__pycache__", "out", ".pytest_cache"),
                )
            else:
                shutil.copy2(source, checkout / name)
        package = checkout / "src" / "repro"
        runs, reached = trace(traffic(checkout, scratch), package, checkout)
        defined = functions(package)
    unreached, listed, stale = verdict(defined, reached, ALLOWED)
    text = report(runs, defined, unreached, listed, stale)
    (ROOT / "reach-report.txt").write_text(text + "\n", encoding="utf-8")
    print(text)
    return 1 if listed or stale or any(run.status for run in runs) else 0


if __name__ == "__main__":
    sys.exit(main())
