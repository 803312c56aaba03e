"""E18 — streaming population scaling: memory vs registered universe.

One seeded open-loop streaming run (Poisson arrivals, uniform provider
selection over the virtual universe) is committed at three registered
population scales — 10^4, 10^5 and 10^6 providers — with the same
arrival rate.  Because providers are *virtual* (instantiated on first
arrival, retired on inactivity) and reputation rows are *sparse*
(default + touched overrides), the resident state should track the
**active set**, which is rate-bound and scale-independent — not the
universe.

Acceptance criteria asserted directly:

* per-scale traced-heap peak (``tracemalloc``, reset between scales) at
  10^6 providers stays within ``SUBLINEAR_FACTOR``x of the 10^4 peak,
  while the universe grew 100x — the sublinearity criterion;
* the active set stays rate-bound (within ``ACTIVE_SLACK`` of each
  other across scales);
* every run finalises with a clean safety audit;
* two identically-seeded small runs commit bit-identical ledger tips
  (streaming determinism).

The table reports committed transactions, peak active /
touched reputation rows, and the traced-heap peak per scale; process
peak RSS (monotone high-water, so only meaningful once) is recorded in
the JSON twin.  ``--quick`` runs the 10^5 scale only and asserts the
CI peak-RSS ceiling.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_streaming.py           # E18 full
    PYTHONPATH=src python benchmarks/bench_streaming.py --quick   # CI smoke

or through pytest-benchmark like the other benches::

    PYTHONPATH=src python -m pytest benchmarks/bench_streaming.py -q
"""

from __future__ import annotations

import pathlib
import sys
import time
import tracemalloc

if __name__ == "__main__":  # script mode: make _helpers + repro importable
    _here = pathlib.Path(__file__).resolve().parent
    sys.path.insert(0, str(_here))
    _src = _here.parent / "src"
    if _src.is_dir() and str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

from _helpers import emit

import pytest

from repro.analysis.reporting import format_table
from repro.core.params import ProtocolParams
from repro.obs import MetricsRegistry
from repro.streaming.app import StreamingApp
from repro.workloads.arrivals import PoissonArrivals

SEED = 18
SCALES_FULL = (10_000, 100_000, 1_000_000)
SCALES_QUICK = (100_000,)
ROUNDS = {"quick": 8, "full": 12}
ARRIVAL_RATE = 60.0

#: 10^6 / 10^4 universe is 100x; a linear structure would blow the
#: traced heap up accordingly.  Active-set-bound state should stay
#: nearly flat — 8x absorbs allocator noise while still failing any
#: linear regression by an order of magnitude.
SUBLINEAR_FACTOR = 8.0
#: Peak active sets across scales may differ only by sampling noise
#: (uniform selection collides less in bigger universes).
ACTIVE_SLACK = 0.25
#: CI ceiling for --quick at 10^5 providers: far above the interpreter's
#: baseline, far below any universe-proportional blow-up.
QUICK_RSS_CEILING_BYTES = 512 * 1024 * 1024


class _E18App(StreamingApp):
    """The synthetic stream at E18's offered load."""

    def offered_load(self) -> dict:
        return {
            **super().offered_load(),
            "arrivals": PoissonArrivals(ARRIVAL_RATE, seed=self.seed),
        }


def _run_scale(universe: int, rounds: int, seed: int = SEED) -> dict:
    """One streaming run at ``universe`` registered providers."""
    tracemalloc.start()
    app = _E18App(
        universe=universe, n=8, m=4, r=4,
        params=ProtocolParams(f=0.5, b_limit=96), seed=seed, obs=MetricsRegistry(),
    )
    app.run(rounds)
    app.finalize()
    _, traced_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    m = app.metrics
    return {
        "universe": universe,
        "rounds": m.rounds,
        "committed": m.transactions_offered,
        "peak_active": m.peak_active,
        "instantiations": m.instantiations,
        "retirements": m.retirements,
        "peak_backlog": m.peak_backlog,
        "touched_rows": app.touched_rows(),
        "traced_peak_bytes": traced_peak,
        "peak_rss_bytes": m.peak_rss_bytes,
        "tip": app.ledgers()[0].tip_hash().hex(),
        "audit_clean": app.audit_clean,
    }


def _determinism_check(rounds: int = 4) -> bool:
    """Two identically-seeded runs must commit identical tips."""
    tips = []
    for _ in range(2):
        run = _run_scale(10_000, rounds, seed=SEED + 1)
        tips.append(run["tip"])
    return tips[0] == tips[1]


def run_suite(quick: bool = False) -> dict:
    """Run the E18 sweep and emit both result twins; returns metrics."""
    t0 = time.perf_counter()
    scales = SCALES_QUICK if quick else SCALES_FULL
    rounds = ROUNDS["quick" if quick else "full"]

    runs = [_run_scale(universe, rounds) for universe in scales]
    deterministic = _determinism_check()

    base, top = runs[0], runs[-1]
    growth = top["traced_peak_bytes"] / max(base["traced_peak_bytes"], 1)
    scale_ratio = top["universe"] / base["universe"]
    sublinear = quick or growth <= SUBLINEAR_FACTOR
    actives = [r["peak_active"] for r in runs]
    active_bound = (
        max(actives) - min(actives) <= ACTIVE_SLACK * max(actives)
    )
    audits_clean = all(r["audit_clean"] for r in runs)
    rss_ok = (not quick) or runs[0]["peak_rss_bytes"] <= QUICK_RSS_CEILING_BYTES
    all_ok = sublinear and active_bound and audits_clean and deterministic and rss_ok

    rows = [
        (
            f"{r['universe']:.0e}", r["rounds"], r["committed"],
            r["peak_active"], r["retirements"],
            r["touched_rows"],
            f"{r['traced_peak_bytes'] / 1024 / 1024:.2f}",
            r["audit_clean"],
        )
        for r in runs
    ]
    table = format_table(
        ["universe", "rounds", "committed", "peak active",
         "retired", "touched rows", "heap peak MiB", "audit clean"],
        rows,
    )
    table += (
        f"\nopen-loop Poisson({ARRIVAL_RATE:.0f}/round), uniform selection; "
        f"virtual identities retire after 6 idle rounds.\n"
        f"traced-heap growth {growth:.2f}x across a {scale_ratio:.0f}x "
        f"universe (sublinear: {'yes' if sublinear else 'NO'}); "
        f"identically-seeded tips bit-identical: "
        f"{'yes' if deterministic else 'NO'}\n"
    )

    metrics = {
        "runs": runs,
        "traced_peak_growth": growth,
        "universe_scale_ratio": scale_ratio,
        "sublinear": sublinear,
        "active_set_rate_bound": active_bound,
        "audits_clean": audits_clean,
        "deterministic": deterministic,
        "rss_ceiling_bytes": QUICK_RSS_CEILING_BYTES if quick else None,
        "rss_ok": rss_ok,
        "all_ok": all_ok,
    }
    emit(
        "E18_streaming",
        "E18 — streaming population scaling: active-set-bound memory "
        "across 10^4..10^6 registered providers",
        table,
        metrics=metrics,
        duration_s=time.perf_counter() - t0,
        quick=quick,
        timing=("peak_rss_bytes",),
    )
    return metrics


def test_streaming_suite(benchmark):
    """pytest-benchmark entry point (quick scale; the full 10^6 sweep is
    the script/CI path)."""
    metrics = benchmark.pedantic(run_suite, kwargs={"quick": True},
                                 rounds=1, iterations=1)
    assert metrics["audits_clean"]
    assert metrics["deterministic"]
    assert metrics["all_ok"]


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="10^5 scale only with the CI peak-RSS ceiling assertion",
    )
    args = parser.parse_args(argv)
    metrics = run_suite(quick=args.quick)
    if not metrics["all_ok"]:
        print("FATAL: E18 acceptance criteria not met", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
