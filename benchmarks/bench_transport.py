"""E17 — transport parity and robustness on a localhost cluster.

One seeded :class:`~repro.network.cluster.ClusterScenario` is committed
three times:

1. **sim** — the discrete-event :class:`SyncNetwork` baseline;
2. **real** — the same engine over :class:`RealNetwork`, every admitted
   message physically conveyed (framed, CRC-checked, acknowledged) to a
   cluster of custodian subprocesses on localhost (``python -m
   repro.network.custodian``);
3. **chaos** — the real run again, but with every custodian fronted by
   a seeded :class:`~repro.faults.proxy.TransportFaultProxy` injecting
   frame loss, duplication, reordering and a partition blackout window
   at the socket boundary.

The acceptance criteria of the transport backend are asserted directly:

* all three runs commit the **bit-identical chain tip** (same height,
  same sim clock) — socket chaos may delay commitment, never change it;
* every run ends with a clean safety audit and zero violations;
* under chaos the robustness machinery demonstrably fired (dropped
  frames at the proxy, retransmissions and reconnect-backoffs at the
  driver) rather than the run merely getting lucky.

The table reports the three end states side by side, plus the
``tpt_*`` counters for both real runs; what physical conveyance costs
in wall-clock is ``perfbench``'s ``tcp_cluster`` workload.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_transport.py           # E17 full
    PYTHONPATH=src python benchmarks/bench_transport.py --quick   # CI smoke

or through pytest-benchmark like the other benches::

    PYTHONPATH=src python -m pytest benchmarks/bench_transport.py -q
"""

from __future__ import annotations

import pathlib
import sys
import time

if __name__ == "__main__":  # script mode: make _helpers + repro importable
    _here = pathlib.Path(__file__).resolve().parent
    sys.path.insert(0, str(_here))
    _src = _here.parent / "src"
    if _src.is_dir() and str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

from _helpers import emit

import pytest

from repro.analysis.reporting import format_table
from repro.faults.plan import FaultPlan, LinkFaultSpec
from repro.faults.proxy import start_proxy_thread
from repro.network.cluster import ClusterScenario, launch_custodians, run_scenario
from repro.network.realnet import TransportConfig, transport_metrics
from repro.obs import MetricsRegistry

SEED = 5
PEERS = 2

SCALES = {
    "quick": dict(rounds=2, batch=8, partition=(0.3, 0.7)),
    "full": dict(rounds=4, batch=12, partition=(0.5, 1.2)),
}

#: Wall-clock-snappy robustness knobs — the same machinery as the
#: defaults, tightened so the chaos run converges in seconds.
CONFIG = TransportConfig(
    connect_timeout=1.0,
    connect_attempts=10,
    backoff_base=0.02,
    backoff_max=0.25,
    send_deadline=0.3,
    max_retries=24,
    stall_timeout=30.0,
)

#: The chaos run's wire counters that its send deadlines and reconnect
#: backoff decide on the wall clock (one late ack is one more
#: retransmit, and every frame after it meets other proxy draws), so a
#: rerun on a loaded host need not reproduce them; its tip, height and
#: sim clock must.
CHAOS_TIMED = (
    "frames_*", "retransmits", "deadline_expiries", "backoff_sleeps",
    "reconnects", "proxy_frames_*",
)


def _tpt_snapshot(registry: MetricsRegistry, peers: list[str]) -> dict:
    metrics = transport_metrics(registry)
    return {
        "frames_out": metrics["frames"].value_of(direction="out"),
        "frames_in": metrics["frames"].value_of(direction="in"),
        "bytes_out": metrics["bytes"].value_of(direction="out"),
        "bytes_in": metrics["bytes"].value_of(direction="in"),
        "retransmits": metrics["retransmits"].value,
        "deadline_expiries": metrics["deadline_expiries"].value,
        "backoff_sleeps": metrics["backoff_sleeps"].value,
        "reconnects": sum(
            metrics["reconnects"].value_of(peer=p) for p in peers
        ),
        "crc_errors": metrics["crc_errors"].value,
    }


def run_suite(quick: bool = False) -> dict:
    """Run the E17 sweep and emit both result twins; returns metrics."""
    scale = SCALES["quick" if quick else "full"]
    t0 = time.perf_counter()
    scenario = ClusterScenario(
        rounds=scale["rounds"], batch=scale["batch"], seed=SEED
    )

    sim = run_scenario(scenario, backend="sim")

    handle = launch_custodians(PEERS)
    peer_names = [name for name, _, _ in handle.addresses]
    try:
        real_reg = MetricsRegistry()
        real = run_scenario(
            scenario, backend="real",
            custodians=handle.addresses, config=CONFIG, obs=real_reg,
        )
        real_tpt = _tpt_snapshot(real_reg, peer_names)

        start, end = scale["partition"]
        plan = (
            FaultPlan(seed=SEED + 26)
            .with_default_link(
                LinkFaultSpec(loss=0.05, duplicate=0.05, reorder=0.03)
            )
            .with_partition(("any",), start=start, end=end)
        )
        proxies = [
            start_proxy_thread(host, port, plan)
            for _, host, port in handle.addresses
        ]
        try:
            proxied = [
                (name, "127.0.0.1", proxy.port)
                for (name, _, _), (proxy, _) in zip(handle.addresses, proxies)
            ]
            chaos_reg = MetricsRegistry()
            chaos = run_scenario(
                scenario, backend="real",
                custodians=proxied, config=CONFIG, obs=chaos_reg,
            )
            chaos_tpt = _tpt_snapshot(chaos_reg, peer_names)
            chaos_tpt["proxy_frames_dropped"] = sum(
                proxy.frames_dropped for proxy, _ in proxies
            )
            chaos_tpt["proxy_frames_duplicated"] = sum(
                proxy.frames_duplicated for proxy, _ in proxies
            )
            chaos_tpt["proxy_connections_killed"] = sum(
                proxy.connections_killed for proxy, _ in proxies
            )
        finally:
            for _, pstop in proxies:
                pstop()
    finally:
        handle.close()

    runs = {"sim": sim, "real": real, "chaos": chaos}
    tips_identical = (
        sim["tip"] == real["tip"] == chaos["tip"]
        and sim["height"] == real["height"] == chaos["height"]
        and sim["clock"] == real["clock"] == chaos["clock"]
    )
    audits_clean = all(
        r["audit_clean"] and r["violations"] == 0 for r in runs.values()
    )
    chaos_exercised = (
        chaos_tpt["proxy_frames_dropped"] > 0
        and chaos_tpt["retransmits"] > 0
        and (chaos_tpt["reconnects"] > 0 or chaos_tpt["backoff_sleeps"] > 0)
    )
    all_ok = tips_identical and audits_clean and chaos_exercised

    rows = [
        (
            name, r["committed"], r["height"], f"{r['clock']:.3f}",
            r["tip"][:16], r["tip"] == sim["tip"], r["audit_clean"],
        )
        for name, r in runs.items()
    ]
    table = format_table(
        ["backend", "committed", "height", "sim clock",
         "tip (prefix)", "tip == sim", "audit clean"],
        rows,
    )
    table += (
        f"\nlocalhost cluster: {PEERS} custodian processes "
        f"(`python -m repro.network.custodian`); "
        f"chaos = 5% loss, 5% dup, 3% reorder,\n"
        f"partition blackout {scale['partition'][0]:.1f}s-"
        f"{scale['partition'][1]:.1f}s at the socket boundary\n"
    )
    tpt_rows = [
        (key, int(real_tpt.get(key, 0)), int(chaos_tpt[key]))
        for key in chaos_tpt
    ]
    table += "\n" + format_table(
        ["transport counter", "real", "chaos"], tpt_rows
    )
    table += (
        f"\nall three tips bit-identical: {'yes' if tips_identical else 'NO'}\n"
    )

    metrics = {
        "runs": {
            name: {k: v for k, v in r.items()} for name, r in runs.items()
        },
        "transport": {"real": real_tpt, "chaos": chaos_tpt},
        "tips_identical": tips_identical,
        "audits_clean": audits_clean,
        "chaos_exercised": chaos_exercised,
        "all_ok": all_ok,
    }
    emit(
        "E17_transport",
        "E17 — one seeded scenario, three transports: simulator, real "
        "TCP cluster, real TCP under socket chaos",
        table,
        metrics=metrics,
        registry=chaos_reg,
        duration_s=time.perf_counter() - t0,
        quick=quick,
        timing=(
            "chaos.bytes_*", "bytes_*.chaos", "tpt_bytes_total",
            *(f"chaos.{c}" for c in CHAOS_TIMED),
            *(f"{c}.chaos" for c in CHAOS_TIMED),
            "tpt_frames_total", "tpt_retransmits_total",
            "tpt_send_deadline_expiries_total", "tpt_reconnects_total",
            "tpt_backoff_sleeps_total",
        ),
    )
    return metrics


@pytest.mark.realnet
def test_transport_suite(benchmark):
    """pytest-benchmark entry point (full scale, like the other benches)."""
    metrics = benchmark.pedantic(run_suite, rounds=1, iterations=1)
    assert metrics["tips_identical"]
    assert metrics["audits_clean"]
    assert metrics["all_ok"]


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small CI-smoke scale (same code paths, seconds not minutes)",
    )
    args = parser.parse_args(argv)
    metrics = run_suite(quick=args.quick)
    if not metrics["all_ok"]:
        print("FATAL: E17 acceptance criteria not met", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
