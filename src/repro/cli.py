"""Command-line interface: run protocol experiments without writing code.

Subcommands:

* ``run [PRESET]`` — build a named preset from the one scenario registry
  (:mod:`repro.workloads.scenarios`; default ``paper-default``), drive it
  for its rounds on whichever host it names — in-process, networked
  (on an fsynced segment log with ``--dir``; the kill-restart chaos
  harness drives that as a subprocess and SIGKILLs it mid-round),
  sharded (``--workers`` for a process pool) or streaming — and print
  that host's report.  The shape flags override the preset's fields;
* ``recover`` — replay and verify a durable ledger directory, printing
  the recovery report without starting an engine;
* ``serve`` — run a custodian peer for the real-socket transport on a
  chosen address: it CRC-validates and acknowledges conveyed frames
  (:func:`repro.network.custodian.serve`, the same server ``python -m
  repro.network.custodian`` runs and the localhost-cluster harness forks
  ``n`` of; see DESIGN.md, "Transport backend").

Example::

    python -m repro run --rounds 20 --batch 32 --f 0.6 --misreporters 2
    python -m repro run durable-smoke --dir /tmp/ledger

The experiments' tables (E1, E5, E8, ...) are the benches' output:
``pytest benchmarks/bench_<name>.py --benchmark-only``.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from typing import Sequence

from repro.agents.behaviors import MisreportBehavior
from repro.analysis.metrics import summarize_run
from repro.analysis.reporting import format_table
from repro.exceptions import ConfigurationError, ReproError
from repro.ledger.properties import check_all_properties
from repro.workloads.scenarios import SCENARIOS, build, reject_unread, scenario_names

__all__ = ["main", "build_parser"]


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

    recover = sub.add_parser(
        "recover", help="verify a durable ledger directory and print the report"
    )
    recover.add_argument("--dir", required=True)

    serve = sub.add_parser(
        "serve",
        help="run a custodian peer: validate and ack conveyed frames "
             "(the localhost-cluster harness forks these)",
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
        n = overrides.get("n", scenario.n)
        if not 0 <= args.misreporters <= n:
            raise ConfigurationError(
                f"misreporters must be in [0, {n}], got {args.misreporters}"
            )
        overrides["behavior_factory"] = lambda topo: {
            c: MisreportBehavior(0.5) for c in topo.collectors[: args.misreporters]
        }
    if args.round_delay is not None and args.round_delay < 0:
        raise ConfigurationError(f"round delay must be >= 0, got {args.round_delay}")
    deployment, workload, scenario = build(
        replace(scenario, **overrides),
        args.seed, storage_dir=args.dir, workers=args.workers,
    )
    try:
        print(f"scenario: {scenario.name} [{scenario.host}] — {scenario.description}")
        print(f"shape: l={scenario.l} n={scenario.n} m={scenario.m} r={scenario.r}; "
              f"f={scenario.params.f}, {scenario.rounds} rounds, batch {scenario.batch}")
        for k in range(1, scenario.rounds + 1):
            deployment.run_round(workload.take(scenario.batch))
            # The flushed marker is the chaos harness's kill cue: on a durable
            # store, "round k" on stdout means this run's k-th block is fsynced.
            print(f"round {k} tip={','.join(deployment.tip_hashes())}", flush=True)
            if args.round_delay:
                time.sleep(args.round_delay)
        return 0 if _REPORTS[scenario.host](deployment) else 1
    finally:
        deployment.close()  # a worker pool is reaped, also after a failed round


def _report_inproc(engine) -> bool:
    engine.finalize()
    print(f"final tip={engine.store.tip_hash().hex()}")
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
    # finalize() runs flush rounds while a receipt awaits its remote leg.
    print(f"final tip={','.join(coordinator.tip_hashes())}")
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
    print(f"quarantine verdicts: {sum(map(len, coordinator.quarantine_logs()))}")
    print(f"cross-shard atomicity clean: {report.clean}")
    all_hold = all(s.properties_hold for s in stats)
    print(f"properties hold on all shards: {all_hold}")
    for violation in report.violations:
        print(f"  !! {violation}")
    return report.clean and all_hold


def _report_stream(app) -> bool:
    report = app.report()
    print(f"final tip={app.store.tip_hash().hex()}")
    width = max(len(k) for k in report)
    for key, value in report.items():
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
