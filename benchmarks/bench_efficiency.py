"""E5 — the efficiency claim: larger f => fewer validations => faster.

Sweeps f over the full protocol engine and reports, per transaction:
governor validations (the protocol's dominant cost), wall-clock time,
unchecked rate, and mistakes.  The paper's claim: f tunes a smooth
efficiency/correctness trade-off, with mistakes staying O(sqrt(T))
thanks to the reputation mechanism.
"""

from __future__ import annotations

import time

from _helpers import emit
from repro.agents.behaviors import AlwaysInvertBehavior, MisreportBehavior
from repro.analysis.metrics import SweepTable, summarize_run
from repro.analysis.reporting import format_sweep
from repro.core.params import ProtocolParams
from repro.core.protocol import ProtocolEngine
from repro.network.topology import Topology
from repro.workloads.generator import BernoulliWorkload

ROUNDS = 25
PER_ROUND = 24


def _run_at_f(f: float, seed: int = 0):
    topo = Topology.regular(l=12, n=6, m=4, r=3)
    behaviors = {
        "c0": MisreportBehavior(0.5),
        "c1": AlwaysInvertBehavior(),
    }
    engine = ProtocolEngine(
        topo, ProtocolParams(f=f), behaviors=behaviors, seed=seed,
    )
    workload = BernoulliWorkload(topo.providers, p_valid=0.7, seed=seed + 1)
    start = time.perf_counter()
    for _ in range(ROUNDS):
        engine.run_round(workload.take(PER_ROUND))
    elapsed = time.perf_counter() - start
    engine.finalize()
    return engine, elapsed


def _f_sweep_table() -> str:
    table = SweepTable(parameter="f")
    for f in [0.1, 0.3, 0.5, 0.7, 0.9]:
        engine, elapsed = _run_at_f(f)
        summary = summarize_run(engine)
        n_tx = summary.transactions
        table.add(
            f,
            {
                "validations/tx": round(summary.total_validations / (n_tx * 4), 4),
                "unchecked rate": round(summary.mean_unchecked_rate, 4),
                "mistakes": float(summary.total_mistakes),
                "ms/tx": round(1000.0 * elapsed / n_tx, 3),
            },
        )
    text = format_sweep(table)
    # The headline check: validation cost strictly decreases in f.
    checks = table.column("validations/tx")
    text += (
        "\n\nvalidation cost decreasing in f: "
        + ("yes" if all(a >= b for a, b in zip(checks, checks[1:])) else "NO")
    )
    return text


def test_e5_f_sweep(benchmark):
    """E5: the f efficiency/correctness trade-off table."""
    table = benchmark.pedantic(_f_sweep_table, rounds=1, iterations=1)
    emit(
        "E5_efficiency",
        "E5: efficiency tuning with f (4 governors, 600 tx, 2 dishonest collectors)",
        table,
        timing=("ms/tx",),
    )


def test_e5_round_throughput(benchmark):
    """Timing target: one full protocol round at f = 0.5."""
    topo = Topology.regular(l=12, n=6, m=4, r=3)
    engine = ProtocolEngine(
        topo, ProtocolParams(f=0.5), seed=3
    )
    workload = BernoulliWorkload(topo.providers, p_valid=0.7, seed=4)

    def one_round():
        engine.run_round(workload.take(PER_ROUND))

    benchmark(one_round)
