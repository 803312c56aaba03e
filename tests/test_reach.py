"""``tools/reach.py`` lists the functions no run enters.

One tiny package and one run of it: a function only a test would call
is listed; a ``typing.Protocol`` method and an abstract stub are
declarations and are not; a function first entered in a forked child
that is then SIGKILLed counts as reached, because the child writes each
function down the first time it enters it, not at an exit it never
reaches.  An allowlist entry for a function the run reaches is stale.
"""

from __future__ import annotations

import importlib.util
import pathlib
import textwrap

_TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "reach.py"

PACKAGE = '''
from typing import Protocol


class Shape(Protocol):
    def area(self) -> float: ...


class Base:
    def size(self) -> int:
        """Subclasses count."""
        raise NotImplementedError


def used():
    return 1


def only_test():
    return 2


def in_child():
    return 3
'''

DRIVE = '''
import os
import signal

from pkg.mod import in_child, used

used()
pid = os.fork()
if pid == 0:
    in_child()
    os.kill(os.getpid(), signal.SIGKILL)
_, status = os.waitpid(pid, 0)
assert os.WIFSIGNALED(status)
'''


def _tool():
    spec = importlib.util.spec_from_file_location("reach", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_lists_only_what_no_run_enters(tmp_path):
    reach = _tool()
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(textwrap.dedent(PACKAGE))
    (tmp_path / "drive.py").write_text(textwrap.dedent(DRIVE))

    (run,), reached = reach.trace([["drive.py"]], package, tmp_path)
    assert run.status == 0, run.output
    defined = reach.functions(package)
    unreached, listed, stale = reach.verdict(defined, reached, {})
    assert [f.qualname for f in unreached] == [f.qualname for f in listed] == ["only_test"]
    assert stale == []
    assert {f.qualname for f in defined.values()} == {"used", "only_test", "in_child"}

    allowed = {"pkg/mod.py::only_test": "kept", "pkg/mod.py::used": "kept"}
    _, listed, stale = reach.verdict(defined, reached, allowed)
    assert listed == []
    assert stale == [("pkg/mod.py::used", "a run reaches everything it names")]
