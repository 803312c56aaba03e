"""Command-line interface: run protocol experiments without writing code.

Subcommands:

* ``run [PRESET]`` — build a named preset from the one scenario registry
  (:mod:`repro.workloads.scenarios`; default ``paper-default``), drive it
  for its rounds on whichever host it names — in-process, networked
  (on an fsynced segment log with ``--dir``; the kill-restart chaos
  harness drives that as a subprocess and SIGKILLs it mid-round),
  sharded (``--workers`` for a process pool) or streaming — and print
  that host's report.  The shape flags override the preset's fields;
* ``regret`` — play the Theorem-1 reputation game against a named
  adversary mix and print loss / S_min / bound rows;
* ``sweep-f`` — the E5 efficiency table over an f grid;
* ``baselines`` — the E8 policy comparison on one adversary mix;
* ``recover`` — replay and verify a durable ledger directory, printing
  the recovery report without starting an engine;
* ``serve`` — run a custodian peer for the real-socket transport on a
  chosen address: it CRC-validates and acknowledges conveyed frames
  (:func:`repro.network.custodian.serve`; the
  localhost-cluster harness spawns ``n`` of these as ``python -m
  repro.network.custodian``; see DESIGN.md, "Transport backend").

Example::

    python -m repro run --rounds 20 --batch 32 --f 0.6 --misreporters 2
    python -m repro run durable-smoke --dir /tmp/ledger
    python -m repro regret --horizon 2000 --mix zoo
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import asdict, is_dataclass, replace
from typing import Sequence

from repro.agents.behaviors import (
    AlwaysInvertBehavior,
    HonestBehavior,
    MisreportBehavior,
    SleeperBehavior,
    standard_adversary_mix,
)
from repro.analysis.metrics import SweepTable, summarize_run
from repro.analysis.reporting import format_sweep, format_table
from repro.baselines.base import PolicySimulation, ReputationPolicy
from repro.baselines.check_all import CheckAllPolicy
from repro.baselines.check_none import CheckNonePolicy
from repro.baselines.majority_vote import MajorityVotePolicy
from repro.baselines.no_reputation import UniformSelectionPolicy
from repro.core.game import ReputationGame
from repro.core.params import ProtocolParams
from repro.core.protocol import ProtocolEngine
from repro.exceptions import ReproError
from repro.ledger.properties import check_all_properties
from repro.network.topology import Topology
from repro.workloads.generator import BernoulliWorkload
from repro.workloads.scenarios import SCENARIOS, build, reject_unread, scenario_names

__all__ = ["main", "build_parser"]

#: Named adversary mixes for the game subcommands (r = 8 collectors).
MIXES = {
    "honest": lambda: [HonestBehavior()] * 8,
    "mild": lambda: [HonestBehavior()] * 6 + [MisreportBehavior(0.3)] * 2,
    "hostile": lambda: [HonestBehavior()] * 2 + [AlwaysInvertBehavior()] * 6,
    "sleepers": lambda: [HonestBehavior()] * 2
    + [SleeperBehavior(150) for _ in range(6)],
    "zoo": standard_adversary_mix,
}


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for --help tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Permissioned blockchain with provable reputation — experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a named scenario preset on its host")
    run.add_argument("preset", nargs="?", choices=scenario_names(),
                     default="paper-default")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--rounds", type=int, help="override the preset's round count")
    # Shape overrides: each replaces one field of the preset.
    run.add_argument("--providers", type=int, dest="l",
                     help="providers (the registered universe on a stream preset)")
    run.add_argument("--collectors", type=int, dest="n")
    run.add_argument("--governors", type=int, dest="m")
    run.add_argument("--r", type=int, help="collectors per provider")
    run.add_argument("--batch", type=int, help="transactions offered per round")
    run.add_argument("--f", type=float)
    run.add_argument("--misreporters", type=int,
                     help="the first k collectors run MisreportBehavior(0.5) "
                          "in place of the preset's mix")
    run.add_argument("--round-delay", type=float,
                     help="wall-clock sleep after each round (lets a chaos "
                          "harness land a SIGKILL mid-run)")
    # Read by one host each; an error on a preset of any other.
    run.add_argument("--dir", help="net presets: ledger directory (segments + "
                                   "checkpoints; default: in memory)")
    run.add_argument("--workers", type=int,
                     help="shard presets: run the shard engines in this many "
                          "worker processes (default: serial in-process; "
                          "ledgers are bit-identical either way)")

    regret = sub.add_parser("regret", help="play the Theorem-1 game")
    regret.add_argument("--horizon", type=int, default=1000)
    regret.add_argument("--mix", choices=sorted(MIXES), default="zoo")
    regret.add_argument("--seeds", type=int, default=3)
    regret.add_argument("--beta", type=float, default=None,
                        help="fixed beta (default: tuned schedule)")

    sweep = sub.add_parser("sweep-f", help="E5 efficiency sweep")
    sweep.add_argument("--rounds", type=int, default=15)
    sweep.add_argument("--batch", type=int, default=24)
    sweep.add_argument("--seed", type=int, default=0)

    baselines = sub.add_parser("baselines", help="E8 policy comparison")
    baselines.add_argument("--mix", choices=sorted(MIXES), default="hostile")
    baselines.add_argument("--horizon", type=int, default=2000)
    baselines.add_argument("--f", type=float, default=0.7)
    baselines.add_argument("--seed", type=int, default=0)

    recover = sub.add_parser(
        "recover", help="verify a durable ledger directory and print the report"
    )
    recover.add_argument("--dir", required=True)

    serve = sub.add_parser(
        "serve",
        help="run a custodian peer: validate and ack conveyed frames "
             "(the localhost-cluster harness spawns these)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port to bind (0 = OS-assigned; the bound "
                            "port is announced on stdout)")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = SCENARIOS[args.preset]
    overrides = {
        name: value
        for name in ("l", "n", "m", "r", "batch", "rounds")
        if (value := getattr(args, name)) is not None
    }
    if args.f is not None:
        overrides["params"] = replace(scenario.params, f=args.f)
    if args.misreporters is not None:
        reject_unread(scenario, behavior_factory=args.misreporters)
        overrides["behavior_factory"] = lambda topo: {
            c: MisreportBehavior(0.5) for c in topo.collectors[: args.misreporters]
        }
    deployment, workload, scenario = build(
        replace(scenario, **overrides),
        args.seed, storage_dir=args.dir, workers=args.workers,
    )
    try:
        print(f"scenario: {scenario.name} [{scenario.host}] — {scenario.description}")
        print(f"shape: l={scenario.l} n={scenario.n} m={scenario.m} r={scenario.r}; "
              f"f={scenario.params.f}, {scenario.rounds} rounds, batch {scenario.batch}")
        store = getattr(deployment, "store", None)
        for _ in range(scenario.rounds):
            deployment.run_round(workload.take(scenario.batch))
            if store is not None:
                # The flushed marker is the chaos harness's kill cue: on a
                # durable store, "round k" on stdout means block k was fsynced.
                print(f"round {store.height} tip={store.tip_hash().hex()}", flush=True)
            if args.round_delay:
                time.sleep(args.round_delay)
        return 0 if _REPORTS[scenario.host](deployment) else 1
    finally:
        deployment.close()  # a worker pool is reaped, also after a failed round


def _report_inproc(engine) -> bool:
    engine.run_round([])  # flush argued re-evaluations into a final block
    engine.finalize()
    summary = summarize_run(engine)
    rows = [
        (g.governor, g.screened, g.validations, g.unchecked, g.mistakes,
         f"{g.expected_loss:.2f}")
        for g in summary.governors
    ]
    print(format_table(
        ["governor", "screened", "validated", "unchecked", "mistakes", "E[loss]"], rows
    ))
    report = check_all_properties(engine.ledgers(), engine.transcript)
    print(f"\nchain height: {engine.store.height}")
    print(f"properties hold: {report.all_hold}")
    for violation in report.violations:
        print(f"  !! {violation}")
    return report.all_hold


def _report_net(engine) -> bool:
    engine.finalize()
    if engine.recovery_report is not None:
        print(f"recovery at open: {engine.recovery_report.summary()}")
    print(f"final height {engine.store.height} "
          f"tip={engine.store.tip_hash().hex()}")
    clean = engine.harness_auditor.report.clean
    print(f"auditor clean: {clean}")
    return clean


def _report_shard(coordinator) -> bool:
    report = coordinator.finalize()
    # Backend-neutral reporting: chain_stats works whether the engines
    # are in-process or in worker processes.
    stats = coordinator.chain_stats()
    print(f"{len(stats)} shards [{coordinator.backend.kind} backend]")
    print(format_table(
        ["shard", "height", "committed", "cross-out", "cross-in", "rep mass"],
        [(s.shard, s.height, s.origin, s.cross_out, s.receipts_in,
          f"{s.reputation_mass:.3f}") for s in stats],
    ))
    migrations = sum(len(moves) for _, _, moves in coordinator.reshuffle_log)
    print(f"\naggregate committed: {coordinator.committed_total} tx, "
          f"throughput {coordinator.throughput():.2f} tx/sim-s")
    print(f"reshuffles: {len(coordinator.reshuffle_log)} "
          f"({migrations} collector migrations)")
    print(f"cross-shard atomicity clean: {report.clean}")
    all_hold = all(s.properties_hold for s in stats)
    print(f"properties hold on all shards: {all_hold}")
    for violation in report.violations:
        print(f"  !! {violation}")
    return report.clean and all_hold


def _report_stream(app) -> bool:
    report = app.report()
    items = asdict(report) if is_dataclass(report) else report
    width = max(len(k) for k in items)
    for key, value in items.items():
        print(f"  {key:<{width}}  {value}")
    print(f"touched reputation rows: {app.touched_rows()} "
          f"(universe x collectors = {app.universe * app.n})")
    return app.audit_clean


_REPORTS = {
    "inproc": _report_inproc,
    "net": _report_net,
    "shard": _report_shard,
    "stream": _report_stream,
}


def _cmd_regret(args: argparse.Namespace) -> int:
    rows = []
    for seed in range(args.seeds):
        game = ReputationGame(
            MIXES[args.mix](), horizon=args.horizon, seed=seed,
            beta=args.beta, track_curves=False,
        )
        result = game.run()
        rows.append(
            (seed, f"{result.expected_loss:.2f}", f"{result.s_min:.2f}",
             f"{result.regret:.2f}", f"{result.theorem1_rhs():.1f}",
             "yes" if result.expected_loss <= result.theorem1_rhs() else "NO")
        )
    print(f"mix = {args.mix}, T = {args.horizon}")
    print(format_table(
        ["seed", "L_T", "S_min", "regret", "Thm-1 RHS", "within"], rows
    ))
    return 0


def _cmd_sweep_f(args: argparse.Namespace) -> int:
    table = SweepTable(parameter="f")
    for f in (0.1, 0.3, 0.5, 0.7, 0.9):
        topo = Topology.regular(l=12, n=6, m=4, r=3)
        engine = ProtocolEngine(
            topo, ProtocolParams(f=f),
            behaviors={"c0": MisreportBehavior(0.5)},
            seed=args.seed, leader_rotation=True,
        )
        workload = BernoulliWorkload(topo.providers, p_valid=0.7, seed=args.seed + 1)
        for _ in range(args.rounds):
            engine.run_round(workload.take(args.batch))
        engine.finalize()
        summary = summarize_run(engine)
        table.add(f, {
            "validations/tx": round(
                summary.total_validations / (summary.transactions * topo.m), 4
            ),
            "unchecked rate": round(summary.mean_unchecked_rate, 4),
            "mistakes": float(summary.total_mistakes),
        })
    print(format_sweep(table))
    return 0


def _cmd_baselines(args: argparse.Namespace) -> int:
    params = ProtocolParams(f=args.f)
    collector_ids = [f"c{i}" for i in range(8)]
    policies = {
        "reputation (paper)": lambda: ReputationPolicy(
            params=params, collector_ids=collector_ids
        ),
        "check-all": lambda: CheckAllPolicy(),
        "check-none": lambda: CheckNonePolicy(),
        "uniform": lambda: UniformSelectionPolicy(params=params),
        "majority": lambda: MajorityVotePolicy(),
    }
    rows = []
    for name, factory in policies.items():
        sim = PolicySimulation(MIXES[args.mix](), horizon=args.horizon, seed=args.seed)
        stats = sim.run(factory(), policy_seed=args.seed + 1)
        rows.append(
            (name, stats.mistakes, stats.validations, f"{stats.mistake_rate:.4f}")
        )
    print(f"mix = {args.mix}, horizon = {args.horizon}, f = {args.f}")
    print(format_table(["policy", "mistakes", "validations", "mistake rate"], rows))
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    from repro.storage import recover

    report = recover(args.dir)
    print(f"recovery: {report.summary()}")
    if report.blocks:
        tip = report.blocks[-1].hash().hex()
    elif report.base_serial:
        tip = report.base_hash.hex() + " (checkpoint base)"
    else:
        tip = "(empty)"
    print(f"tip: {tip}")
    for bad in report.corruptions:
        print(f"  !! {bad.kind} in {bad.target} @ {bad.offset}: {bad.detail}")
    return 0 if report.clean else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.network.custodian import serve

    serve(args.host, args.port)
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "regret": _cmd_regret,
    "sweep-f": _cmd_sweep_f,
    "baselines": _cmd_baselines,
    "recover": _cmd_recover,
    "serve": _cmd_serve,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code (2 for a rejected configuration)."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as error:
        print(f"repro: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
