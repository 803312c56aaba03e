"""Command-line interface: run protocol experiments without writing code.

Subcommands:

* ``run`` — execute the full three-tier protocol and print the
  per-governor summary plus the five property checks;
* ``regret`` — play the Theorem-1 reputation game against a named
  adversary mix and print loss / S_min / bound rows;
* ``sweep-f`` — the E5 efficiency table over an f grid;
* ``baselines`` — the E8 policy comparison on one adversary mix;
* ``scenario`` — run a named preset from the scenario registry;
* ``shard`` — run an S-shard deployment (named preset or explicit
  shape) and print per-shard + aggregate statistics;
* ``durable`` — run a durable-ledger preset committing every block to
  an on-disk segment log (the kill-restart chaos harness drives this
  as a subprocess and SIGKILLs it mid-round);
* ``recover`` — replay and verify a durable ledger directory, printing
  the recovery report without starting an engine;
* ``serve`` — run a custodian peer for the real-socket transport: it
  CRC-validates and acknowledges conveyed frames and answers
  heartbeats (the localhost-cluster harness spawns ``n`` of these; see
  DESIGN.md, "Transport backend").

Example::

    python -m repro run --rounds 20 --batch 32 --f 0.6 --misreporters 2
    python -m repro regret --horizon 2000 --mix zoo
"""

from __future__ import annotations

import argparse
import sys
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
from repro.baselines import (
    CheckAllPolicy,
    CheckNonePolicy,
    MajorityVotePolicy,
    PolicySimulation,
    ReputationPolicy,
    UniformSelectionPolicy,
)
from repro.core.game import ReputationGame
from repro.core.params import ProtocolParams
from repro.core.protocol import ProtocolEngine
from repro.ledger.properties import check_all_properties
from repro.network.topology import Topology
from repro.workloads.generator import BernoulliWorkload

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

    run = sub.add_parser("run", help="run the full protocol")
    run.add_argument("--providers", type=int, default=16)
    run.add_argument("--collectors", type=int, default=8)
    run.add_argument("--governors", type=int, default=4)
    run.add_argument("--r", type=int, default=4, help="collectors per provider")
    run.add_argument("--rounds", type=int, default=20)
    run.add_argument("--batch", type=int, default=32, help="transactions per round")
    run.add_argument("--f", type=float, default=0.5)
    run.add_argument("--p-valid", type=float, default=0.8)
    run.add_argument("--misreporters", type=int, default=0,
                     help="collectors flipped to MisreportBehavior(0.5)")
    run.add_argument("--seed", type=int, default=0)

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

    from repro.workloads.scenarios import scenario_names

    scenario = sub.add_parser("scenario", help="run a named scenario preset")
    scenario.add_argument("name", choices=scenario_names())
    scenario.add_argument("--seed", type=int, default=0)
    scenario.add_argument("--rounds", type=int, default=None,
                          help="override the preset's round count")

    from repro.workloads.scenarios import shard_scenario_names

    shard = sub.add_parser("shard", help="run an S-shard deployment")
    shard.add_argument("--preset", choices=shard_scenario_names(),
                       default="sharded-smoke",
                       help="named sharded scenario to run")
    shard.add_argument("--seed", type=int, default=0)
    shard.add_argument("--rounds", type=int, default=None,
                       help="override the preset's super-round count")
    shard.add_argument("--workers", type=int, default=None,
                       help="run shard engines in this many worker "
                            "processes (default: serial in-process; "
                            "ledgers are bit-identical either way)")

    from repro.workloads.scenarios import durable_scenario_names

    durable = sub.add_parser(
        "durable", help="run a durable-ledger preset against a storage dir"
    )
    durable.add_argument("--preset", choices=durable_scenario_names(),
                         default="durable-smoke")
    durable.add_argument("--dir", required=True,
                         help="ledger directory (segments + checkpoints)")
    durable.add_argument("--seed", type=int, default=0)
    durable.add_argument("--rounds", type=int, default=None,
                         help="override the preset's round count")
    durable.add_argument("--round-delay", type=float, default=0.0,
                         help="wall-clock sleep after each round (lets a "
                              "chaos harness land a SIGKILL mid-run)")

    recover = sub.add_parser(
        "recover", help="verify a durable ledger directory and print the report"
    )
    recover.add_argument("--dir", required=True)

    from repro.streaming.scenarios import stream_scenario_names

    stream = sub.add_parser(
        "stream", help="run a streaming-population preset (virtual providers)"
    )
    stream.add_argument("--preset", choices=stream_scenario_names(),
                        default="stream-smoke")
    stream.add_argument("--seed", type=int, default=0)
    stream.add_argument("--rounds", type=int, default=None,
                        help="override the preset's round count")
    stream.add_argument("--universe", type=int, default=None,
                        help="override the registered (virtual) population")

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
    topo = Topology.regular(
        l=args.providers, n=args.collectors, m=args.governors, r=args.r
    )
    behaviors = {
        topo.collectors[i]: MisreportBehavior(0.5)
        for i in range(min(args.misreporters, topo.n))
    }
    engine = ProtocolEngine(
        topo, ProtocolParams(f=args.f), behaviors=behaviors, seed=args.seed
    )
    workload = BernoulliWorkload(topo.providers, p_valid=args.p_valid, seed=args.seed + 1)
    for _ in range(args.rounds):
        engine.run_round(workload.take(args.batch))
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
    return 0 if report.all_hold else 1


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


def _cmd_scenario(args: argparse.Namespace) -> int:
    from repro.workloads.scenarios import build_engine

    engine, workload, scenario = build_engine(args.name, seed=args.seed)
    rounds = args.rounds if args.rounds is not None else scenario.rounds
    print(f"scenario: {scenario.name} — {scenario.description}")
    print(f"topology: l={scenario.l} n={scenario.n} m={scenario.m} r={scenario.r}; "
          f"f={scenario.params.f}, {rounds} rounds x {scenario.batch} tx")
    for _ in range(rounds):
        engine.run_round(workload.take(scenario.batch))
    engine.run_round([])  # flush argued re-evaluations into a final block
    engine.finalize()
    summary = summarize_run(engine)
    rows = [
        (g.governor, g.screened, g.validations, g.unchecked, g.mistakes)
        for g in summary.governors
    ]
    print(format_table(
        ["governor", "screened", "validated", "unchecked", "mistakes"], rows
    ))
    report = check_all_properties(engine.ledgers(), engine.transcript)
    print(f"properties hold: {report.all_hold}")
    return 0 if report.all_hold else 1


def _cmd_shard(args: argparse.Namespace) -> int:
    from repro.workloads.scenarios import build_shard_deployment

    coordinator, workload, scenario = build_shard_deployment(
        args.preset, seed=args.seed, workers=args.workers
    )
    rounds = args.rounds if args.rounds is not None else scenario.rounds
    print(f"shard scenario: {scenario.name} — {scenario.description}")
    print(f"topology: l={scenario.l} n={scenario.n} m={scenario.m} r={scenario.r} "
          f"across {scenario.shards} shards; p_cross={scenario.p_cross}, "
          f"{rounds} super-rounds x {scenario.batch} tx "
          f"[{coordinator.backend.kind} backend]")
    for _ in range(rounds):
        coordinator.submit(workload.take(scenario.batch))
        coordinator.run_super_round()
    report = coordinator.finalize()

    # Backend-neutral reporting: chain_stats works whether the engines
    # are in-process or in worker processes.
    rows = []
    all_hold = True
    for stats in coordinator.chain_stats():
        rows.append((stats.shard, stats.height, stats.origin, stats.cross_out,
                     stats.receipts_in, f"{stats.reputation_mass:.3f}"))
        all_hold = all_hold and stats.properties_hold
    coordinator.close()
    print(format_table(
        ["shard", "height", "committed", "cross-out", "cross-in", "rep mass"],
        rows,
    ))
    migrations = sum(len(moves) for _, _, moves in coordinator.reshuffle_log)
    print(f"\naggregate committed: {coordinator.committed_total} tx, "
          f"throughput {coordinator.throughput():.2f} tx/sim-s")
    print(f"reshuffles: {len(coordinator.reshuffle_log)} "
          f"({migrations} collector migrations)")
    print(f"cross-shard atomicity clean: {report.clean}")
    print(f"properties hold on all shards: {all_hold}")
    for violation in report.violations:
        print(f"  !! {violation}")
    return 0 if report.clean and all_hold else 1


def _cmd_durable(args: argparse.Namespace) -> int:
    import time as _time

    from repro.workloads.scenarios import build_durable_engine

    engine, workload, scenario = build_durable_engine(
        args.preset, seed=args.seed, storage_dir=args.dir
    )
    rounds = args.rounds if args.rounds is not None else scenario.rounds
    report = engine.recovery_report
    print(f"durable scenario: {scenario.name} — {scenario.description}")
    print(f"storage: {args.dir} (checkpoint every "
          f"{scenario.checkpoint_interval} blocks)")
    print(f"recovery: {report.summary()}", flush=True)
    for _ in range(rounds):
        engine.run_round(workload.take(scenario.batch))
        # The flushed marker is the chaos harness's kill cue: seeing
        # "round k" on stdout guarantees block k was fsynced.
        print(f"round {engine.store.height} tip={engine.store.tip_hash().hex()}",
              flush=True)
        if args.round_delay > 0:
            _time.sleep(args.round_delay)
    engine.finalize()
    clean = engine.harness_auditor.report.clean
    print(f"final height {engine.store.height} "
          f"tip={engine.store.tip_hash().hex()}")
    print(f"auditor clean: {clean}")
    return 0 if clean else 1


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


def _cmd_stream(args: argparse.Namespace) -> int:
    from dataclasses import asdict, is_dataclass

    from repro.obs.registry import MetricsRegistry
    from repro.streaming.scenarios import build_streaming_session

    obs = MetricsRegistry()
    runner, scenario = build_streaming_session(
        args.preset, seed=args.seed, universe=args.universe, obs=obs
    )
    rounds = args.rounds if args.rounds is not None else scenario.rounds
    size = args.universe if args.universe is not None else scenario.universe
    print(f"stream scenario: {scenario.name} — {scenario.description}")
    print(f"universe: {size} virtual providers, {rounds} rounds")
    runner.run(rounds)
    report = runner.report()
    items = asdict(report) if is_dataclass(report) else dict(report)
    width = max(len(k) for k in items)
    for key, value in items.items():
        print(f"  {key:<{width}}  {value}")
    session = runner.session
    print(f"touched reputation rows: {session.touched_rows()} "
          f"(universe x collectors = {size * len(session.collectors)})")
    clean = bool(items.get("audit_clean", True))
    return 0 if clean else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.network.realnet import NodeServer

    async def serve() -> None:
        server = NodeServer(host=args.host, port=args.port)
        await server.start()
        # The flushed announcement is the cluster harness's readiness
        # cue (and carries the OS-assigned port when --port 0).
        print(f"listening host={server.host} port={server.port}", flush=True)
        await server.serve_forever()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        pass
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "regret": _cmd_regret,
    "sweep-f": _cmd_sweep_f,
    "baselines": _cmd_baselines,
    "scenario": _cmd_scenario,
    "shard": _cmd_shard,
    "durable": _cmd_durable,
    "recover": _cmd_recover,
    "stream": _cmd_stream,
    "serve": _cmd_serve,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
