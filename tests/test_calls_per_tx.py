"""``tools/calls_per_tx.py`` counts every call, one code object at a time.

pstats keys a function by (file, line, name), so two dataclasses'
generated ``__init__`` methods — both ``<string>:2:__init__`` — collapse
into one entry and one of their counts is lost; the tool sums the
profiler's raw entries instead.  Every host's deployment is measurable:
each has a ``store`` of committed blocks and a ``close()``.
"""

from __future__ import annotations

import cProfile
import importlib.util
import pathlib
from dataclasses import dataclass

_TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "calls_per_tx.py"


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
