"""Named streaming presets: the `repro stream` registry.

A :class:`StreamScenario` is materialised by
:func:`build_streaming_session` into a ready domain runner — either one
of the :mod:`repro.apps` streaming oracles (supply chain, energy,
ticketing) or a plain synthetic session for smoke/bench use.  Every
runner exposes the same surface: ``.session`` (the
:class:`~repro.streaming.session.StreamingSession`), ``run(rounds)``
and ``report()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.exceptions import ConfigurationError
from repro.obs.registry import MetricsRegistry
from repro.streaming.app import StreamingApp

__all__ = [
    "StreamScenario",
    "STREAM_SCENARIOS",
    "stream_scenario_names",
    "build_streaming_session",
]


def _build_synthetic(universe: int, seed: int, obs) -> StreamingApp:
    return StreamingApp(universe=universe, seed=seed, obs=obs)


def _build_supplychain(universe: int, seed: int, obs):
    # Domain presets carry their own domain reports; the obs registry is
    # only threaded into the synthetic preset.
    from repro.apps.supplychain import SupplyChainProvenance

    return SupplyChainProvenance(universe=universe, seed=seed)


def _build_energy(universe: int, seed: int, obs):
    from repro.apps.energy import EnergyMarket

    return EnergyMarket(universe=universe, seed=seed)


def _build_ticketing(universe: int, seed: int, obs):
    from repro.apps.ticketing import FlashSaleTicketing

    return FlashSaleTicketing(universe=universe, seed=seed)


@dataclass(frozen=True)
class StreamScenario:
    """One named streaming preset."""

    name: str
    description: str
    universe: int
    rounds: int
    builder: Callable = field(repr=False)


STREAM_SCENARIOS: dict[str, StreamScenario] = {
    s.name: s
    for s in [
        StreamScenario(
            name="stream-smoke",
            description="synthetic uniform arrivals over a 10^4 universe",
            universe=10_000,
            rounds=8,
            builder=_build_synthetic,
        ),
        StreamScenario(
            name="supply-chain",
            description="multi-hop provenance with a counterfeit ring",
            universe=10_000,
            rounds=12,
            builder=_build_supplychain,
        ),
        StreamScenario(
            name="energy-trading",
            description="diurnal bidirectional flows, tampering aggregators",
            universe=10_000,
            rounds=24,
            builder=_build_energy,
        ),
        StreamScenario(
            name="flash-sale",
            description="extreme burst arrivals with a scalper cartel",
            universe=100_000,
            rounds=16,
            builder=_build_ticketing,
        ),
    ]
}


def stream_scenario_names() -> list[str]:
    """All registered streaming scenario names."""
    return sorted(STREAM_SCENARIOS)


def build_streaming_session(
    name: str,
    seed: int = 0,
    universe: int | None = None,
    obs: MetricsRegistry | None = None,
):
    """Materialise a named streaming preset.

    Args:
        universe: Override the preset's registered population size (the
            bench sweeps 10^4 / 10^5 / 10^6 this way).
        obs: Metrics registry for the synthetic preset's ``stream_*``
            family (domain presets carry their own reports).

    Returns:
        ``(runner, scenario)`` — drive with ``runner.run(rounds)`` and
        read ``runner.report()``.

    Raises:
        ConfigurationError: unknown scenario name.
    """
    scenario = STREAM_SCENARIOS.get(name)
    if scenario is None:
        raise ConfigurationError(
            f"unknown streaming scenario {name!r}; available: {stream_scenario_names()}"
        )
    size = universe if universe is not None else scenario.universe
    runner = scenario.builder(size, seed, obs)
    return runner, scenario
