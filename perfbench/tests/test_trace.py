import sys
import types

import pytest

from perfbench.trace import SPAN_TABLE, Tracer, self_times


def test_self_time_is_duration_minus_child_coverage():
    # root 0..100; children a 10..40 and b 50..70; grandchild of a 20..25
    parents = [-1, 0, 1, 0]
    starts = [0.0, 10.0, 20.0, 50.0]
    ends = [100.0, 40.0, 25.0, 70.0]
    assert self_times(parents, starts, ends) == [50.0, 25.0, 5.0, 20.0]


def test_self_times_sum_to_the_root_duration():
    parents = [-1, 0, 0, 2, 2, 4]
    starts = [0.0, 1.0, 3.0, 3.5, 5.0, 5.5]
    ends = [10.0, 2.0, 9.0, 4.5, 8.0, 6.0]
    assert sum(self_times(parents, starts, ends)) == pytest.approx(10.0)


@pytest.fixture
def toy():
    """Two throwaway ``repro.*`` modules: a home and a by-name importer."""
    home = types.ModuleType("repro._perfbench_toy_home")
    exec(
        "import json\n"
        "def leaf(x):\n    return x + 1\n"
        "def branch(x):\n    return leaf(x) + leaf(x)\n"
        "def dump(x):\n    return json.dumps(x)\n"
        "class Box:\n"
        "    def get(self):\n        return branch(1)\n",
        home.__dict__,
    )
    user = types.ModuleType("repro._perfbench_toy_user")
    user.leaf = home.leaf  # ``from home import leaf``
    sys.modules[home.__name__] = home
    sys.modules[user.__name__] = user
    yield home, user
    del sys.modules[home.__name__], sys.modules[user.__name__]


TOY_TABLE = (
    ("toy", "leaf", "repro._perfbench_toy_home", "leaf"),
    ("toy", "branch", "repro._perfbench_toy_home", "branch"),
    ("toy", "get", "repro._perfbench_toy_home:Box", "get"),
    ("toy", "dumps", "repro._perfbench_toy_home", "json.dumps"),
)


def test_tracer_records_nesting_counts_and_restores(toy):
    import json

    home, user = toy
    originals = (home.leaf, home.branch, home.Box.get, home.json)
    tracer = Tracer(TOY_TABLE)
    tracer.install()
    try:
        tracer.round = 7
        assert home.Box().get() == 4
        assert user.leaf(1) == 2  # the by-name importer is rebound too
        assert home.dump([1]) == "[1]"
        assert json.dumps is not home.json.dumps  # only this module's view
    finally:
        tracer.uninstall()
    assert (home.leaf, home.branch, home.Box.get, home.json) == originals
    assert user.leaf is home.leaf

    totals = tracer.totals()
    assert totals[("toy", "get")].calls == 1
    assert totals[("toy", "branch")].calls == 1
    assert totals[("toy", "leaf")].calls == 3
    assert totals[("toy", "dumps")].calls == 1
    assert totals[("toy", "leaf")].result_sum == 6  # 2 + 2 + 2
    # get -> branch -> leaf, leaf ; then two roots
    keys = [tracer.keys[k] for k in tracer.key_of]
    assert keys[:4] == [("toy", "get"), ("toy", "branch"), ("toy", "leaf"), ("toy", "leaf")]
    assert list(tracer.parent) == [-1, 0, 1, 1, -1, -1]
    assert set(tracer.round_of) == {7}
    get = totals[("toy", "get")]
    inside = sum(totals[("toy", name)].self_ms for name in ("get", "branch"))
    two_leaves = sum(
        (tracer.end[i] - tracer.start[i]) * 1e3 for i in (2, 3)
    )
    assert get.total_ms == pytest.approx(inside + two_leaves)


def test_tracer_ignores_other_threads(toy):
    import threading

    home, _ = toy
    tracer = Tracer(TOY_TABLE)
    tracer.install()
    try:
        worker = threading.Thread(target=home.branch, args=(1,))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
    finally:
        tracer.uninstall()
    assert len(tracer) == 0


def test_every_table_row_names_a_live_callable():
    tracer = Tracer(SPAN_TABLE)
    tracer.install()
    try:
        assert len(tracer.keys) >= 40
    finally:
        tracer.uninstall()
