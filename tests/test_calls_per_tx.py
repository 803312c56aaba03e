"""``tools/calls_per_tx.py`` counts every call, one code object at a time.

pstats keys a function by (file, line, name), so two dataclasses'
generated ``__init__`` methods — both ``<string>:2:__init__`` — collapse
into one entry and one of their counts is lost; the tool sums the
profiler's raw entries instead.  Every host's deployment is measurable:
each has a ``store`` of committed blocks and a ``close()``.  Opcodes
(bytecode instructions executed) are counted beside calls, so work that
makes no call still shows.  ``--check`` fails when a row's calls or
opcodes, or a module count, read above the file's last entry, and when
the entry was recorded under another CPython.
"""

from __future__ import annotations

import cProfile
import functools
import importlib.util
import json
import pathlib
import platform
import shutil
from dataclasses import dataclass

_ROOT = pathlib.Path(__file__).resolve().parent.parent
_TOOL = _ROOT / "tools" / "calls_per_tx.py"


def _tool():
    spec = importlib.util.spec_from_file_location("calls_per_tx", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@dataclass
class _First:
    value: int = 0


@dataclass
class _Second:
    value: int = 0


def _construct_both() -> None:
    _First()
    _Second()


def test_both_dataclass_inits_are_counted():
    profile = cProfile.Profile()
    profile.enable()
    _construct_both()
    profile.disable()
    inits = [
        entry.callcount for entry in profile.getstats()
        if getattr(entry.code, "co_name", None) == "__init__"
    ]
    assert inits == [1, 1]  # two code objects that share one pstats key
    # _construct_both, the two __init__s and profile.disable itself
    assert _tool().total_calls(profile) == 4
    # The per-function table sums the code objects behind one label.
    by_function = _tool().calls_by_function(profile)
    assert by_function["<string>:2(__init__)"] == 2
    assert sum(by_function.values()) == 4


def test_stream_preset_is_measured():
    committed, counts = _tool().measure("stream-smoke", 1)
    assert committed > 0
    assert sum(counts.values()) > committed


def _spin(n: int) -> None:
    for _ in range(n):
        pass


def test_opcodes_are_counted():
    count = _tool().count_opcodes
    ten, twenty, thirty = (count(functools.partial(_spin, n)) for n in (10, 20, 30))
    assert 0 < ten < twenty < thirty
    # The same instructions per iteration, and none of them a call.
    assert thirty - twenty == twenty - ten > 0


def _entry(python, calls, committed, modules, opcodes=None):
    row = {"committed": committed, "calls": calls, "opcodes": opcodes or calls}
    return {"entries": [{
        "commit": "test", "python": python, "seed": 1, "modules": modules,
        "presets": {"durable-smoke": row},
    }]}


def test_check_fails_when_a_count_rises(tmp_path, capsys, monkeypatch):
    tool = _tool()
    # Every check below re-reads the same tree: measure each run once.
    monkeypatch.setattr(tool, "fresh", functools.cache(tool.fresh))
    committed, counts = tool.fresh("durable-smoke", 1)
    calls = sum(counts.values())
    opcodes = tool.fresh("durable-smoke", 1, opcodes=True)[1]["opcodes"]
    assert opcodes > calls
    modules = {"repro.network.custodian": tool.module_count("repro.network.custodian")}
    bench = tmp_path / "bench.json"
    here = platform.python_version()
    bench.write_text(json.dumps(_entry(here, calls, committed, modules, opcodes)))
    assert tool.check(bench) == 0
    bench.write_text(json.dumps(_entry(here, calls - 1, committed, modules, opcodes)))
    assert tool.check(bench) == 1
    bench.write_text(json.dumps(_entry(here, calls, committed, modules, opcodes - 1)))
    assert tool.check(bench) == 1
    fewer = {"repro.network.custodian": modules["repro.network.custodian"] - 1}
    bench.write_text(json.dumps(_entry(here, calls, committed, fewer, opcodes)))
    assert tool.check(bench) == 1
    assert "ROSE" in capsys.readouterr().out


def test_call_free_loop_fails_only_the_opcode_gate(tmp_path, capsys, monkeypatch):
    tool = _tool()
    committed, counts = tool.fresh("durable-smoke", 1)
    opcodes = tool.fresh("durable-smoke", 1, opcodes=True)[1]["opcodes"]
    modules = {"repro.network.custodian": tool.module_count("repro.network.custodian")}
    bench = tmp_path / "bench.json"
    bench.write_text(json.dumps(_entry(
        platform.python_version(), sum(counts.values()), committed, modules, opcodes
    )))
    # A copy of the package whose canonical_encode spins a loop that calls
    # nothing the profiler sees (``range`` is a type, not a builtin function).
    copy = tmp_path / "src" / "repro"
    shutil.copytree(_ROOT / "src" / "repro", copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    hashing = copy / "crypto" / "hashing.py"
    body = "    out = bytearray()\n    _encode(value, out)\n"
    source = hashing.read_text()
    assert source.count(body) == 1
    hashing.write_text(source.replace(body, "    for _ in range(3):\n        pass\n" + body))
    monkeypatch.setenv("PYTHONPATH", str(copy.parent))
    assert tool.check(bench) == 1
    verdicts = {
        line.split()[1]: line.split()[-1]
        for line in capsys.readouterr().out.splitlines()
        if line.startswith("durable-smoke ") and "/tx" in line
    }
    assert verdicts == {"calls/tx": "ok", "opcodes/tx": "ROSE"}


def test_check_asks_for_a_rerecord_on_another_python(tmp_path, capsys):
    bench = tmp_path / "bench.json"
    bench.write_text(json.dumps(_entry("2.7.18", 1, 1, {})))
    assert _tool().check(bench) == 1
    assert "re-record" in capsys.readouterr().err
