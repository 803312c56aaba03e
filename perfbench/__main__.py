"""``python -m perfbench`` — run, compare, stability.

``run`` has two modes.  With ``--trace`` it is the driver protocol: one
workload measured in this process, every metric printed by name with its
unit, and as the last line of standard output one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Without ``--trace`` it
runs every workload (or the one named), each mode in its own fresh
subprocess, prints the same tables and writes one result file that
``compare`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path

from perfbench import OUT_DIR, ROOT
from perfbench.metrics import catalogue


def _or_refused(p95: float | None) -> str:
    return "refused (under 200 rounds)" if p95 is None else f"{p95:.2f} ms"


def _print_metrics(result: dict, unit: dict[str, str]) -> None:
    print(
        f"== {result['workload']} [{result['mode']}] seed={result['seed']} "
        f"rounds={result['rounds']} correct={result['correct']} "
        f"ops_attempted={result['ops_attempted']} ops_failed={result['ops_failed']}"
    )
    for problem in result["problems"]:
        print(f"   !! {problem}")
    for name, value in result["metrics"].items():
        print(f"   {name:<36} {value:>14.6g} {unit[name]}")
    if result["mode"] == "end_to_end":
        detail = result["detail"]
        for name, value in detail["driver"].items():
            unit_of = catalogue().per_layer[name].unit
            print(f"   {name:<36} {value:>14.6g} {unit_of}  (demoted: no bound)")
        print(
            f"   ({result['repeats']} repeats of "
            f"{min(detail['repeat_wall_s']):.1f}..{max(detail['repeat_wall_s']):.1f} s; "
            f"round_ms over {detail['round_ms_samples']} pooled rounds; "
            f"p95 {_or_refused(detail['driver.round_ms_p95'])}; "
            f"tx_per_s quartiles {detail['tx_per_s_quartiles'][0]:.1f}"
            f"..{detail['tx_per_s_quartiles'][2]:.1f})"
        )
    if result["host"]["noisy"]:
        print("   noisy: load above the core count, or steal above 5 %, during this workload")


def _run_one(args) -> int:
    """Driver protocol: one workload, one mode, in this process."""
    from perfbench import harness
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    runner = harness.trace if args.trace else harness.measure
    result = runner(workload, args.seed, args.seconds)
    unit = harness.units(result["mode"])
    _print_metrics(result, unit)
    if args.detail:
        Path(args.detail).write_text(json.dumps(result), encoding="utf-8")
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["ops_attempted"],
                "failed": result["ops_failed"],
                "metrics": {
                    name: {"value": value, "unit": unit[name]}
                    for name, value in result["metrics"].items()
                },
            }
        )
    )
    return 0 if result["correct"] else 1


def _git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _host_block() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count() or 1,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "load_1m": os.getloadavg()[0],
    }


def run_all(names: list[str], seed: int, seconds: int, out: Path) -> dict:
    """Every workload, each mode in a fresh subprocess; one result file."""
    OUT_DIR.mkdir(exist_ok=True)
    result = {
        "schema": "perfbench.result.v1",
        "seed": seed,
        "seconds": seconds,
        "host": _host_block(),
        "workloads": {},
    }
    for name in names:
        entry = {}
        for mode, flag in (("end_to_end", "0"), ("per_layer", "1")):
            detail = OUT_DIR / f"{name}.{mode}.json"
            detail.unlink(missing_ok=True)
            subprocess.run(
                [
                    sys.executable, "-m", "perfbench", "run",
                    "--workload", name, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", flag,
                    "--detail", str(detail),
                ],
                cwd=ROOT, check=False,
            )
            if not detail.exists():
                raise SystemExit(f"{name} [{mode}] produced no result")
            entry[mode] = json.loads(detail.read_text(encoding="utf-8"))
            detail.unlink()
        entry["noisy"] = any(entry[mode]["host"]["noisy"] for mode in entry)
        result["workloads"][name] = entry
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1), encoding="utf-8")
    print(f"\nresult written to {out}")
    return result


def _stability(args) -> int:
    from perfbench.compare import compare

    names = list(catalogue().workloads)
    first = run_all(names, args.seed, args.seconds, OUT_DIR / "stability-A.json")
    second = run_all(names, args.seed, args.seconds, OUT_DIR / "stability-B.json")
    text, passed = compare(first, second, symmetric=True)
    (OUT_DIR / "stability.txt").write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0 if passed else 1


def _compare(args) -> int:
    from perfbench.compare import compare, load_result

    text, passed = compare(load_result(args.a), load_result(args.b))
    print(text)
    return 0 if passed else 1


def _stop_resource_tracker() -> None:
    """End multiprocessing's resource tracker and wait until it has ended.

    The shard pool's ``spawn`` context starts one beside the workers; it
    only exits once this process has closed its pipe, so left alone it
    outlives the benchmark by a moment.  Nothing to do where none started.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def main(argv: list[str] | None = None) -> int:
    try:
        return _main(argv)
    finally:
        _stop_resource_tracker()


def _main(argv: list[str] | None) -> int:
    known = catalogue()
    parser = argparse.ArgumentParser(prog="python -m perfbench", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run the benchmark")
    run.add_argument("--workload", choices=list(known.workloads))
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--seconds", type=int, default=known.run_seconds)
    run.add_argument(
        "--trace", type=int, choices=(0, 1),
        help="driver protocol: 0 = end-to-end metrics, 1 = per-layer metrics",
    )
    run.add_argument("--out", type=Path, default=OUT_DIR / "result.json")
    run.add_argument("--detail", help=argparse.SUPPRESS)

    comparison = commands.add_parser("compare", help="compare two result files")
    comparison.add_argument("a")
    comparison.add_argument("b")

    stability = commands.add_parser(
        "stability", help="two full sets of the same checkout must agree"
    )
    stability.add_argument("--seed", type=int, default=1)
    stability.add_argument("--seconds", type=int, default=known.run_seconds)

    args = parser.parse_args(argv)
    if args.command == "compare":
        return _compare(args)
    if args.command == "stability":
        return _stability(args)
    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        return _run_one(args)
    names = [args.workload] if args.workload else list(known.workloads)
    result = run_all(names, args.seed, args.seconds, args.out)
    ok = all(
        entry[mode]["correct"] for entry in result["workloads"].values() for mode in
        ("end_to_end", "per_layer")
    )
    return 0 if ok else 1


if __name__ == "__main__":
    # A terminated run unwinds like a failed one: every ``finally`` that
    # reaps workers, custodians and the tracker still runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
