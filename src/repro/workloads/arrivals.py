"""Arrival processes: how many transactions enter per round.

The paper's rounds pack up to ``b_limit`` transactions; the arrival
process controls offered load.  Three standard models:

* :class:`ConstantArrivals` — fixed batch per round;
* :class:`PoissonArrivals` — Poisson(rate) per round, the classic
  open-loop model;
* :class:`BurstyArrivals` — two-state (background / burst) modulated
  Poisson, the flash-sale spike model.

Each process derives its randomness from ``default_rng([seed, TAG])``
with a per-class stream tag, so two processes built from the same seed
— or a process composed with a workload generator seeded identically —
draw from decorrelated streams and never perturb each other's counts.
"""

from __future__ import annotations

from repro.exceptions import ConfigurationError
from repro.rng import Generator, default_rng

__all__ = [
    "ArrivalProcess",
    "ConstantArrivals",
    "PoissonArrivals",
    "BurstyArrivals",
]

#: Per-class stream tags, for ``default_rng([seed, TAG])``.
#: Frozen constants — changing one changes every seeded arrival stream.
_POISSON_TAG = 0x41525231  # "ARR1"
_BURSTY_TAG = 0x41525233  # "ARR3"


def _stream_rng(seed: int, tag: int) -> Generator:
    """A generator keyed by (seed, stream-tag), decorrelated across tags."""
    return default_rng([seed, tag])


class ArrivalProcess:
    """Base: per-round transaction counts."""

    def count_for_round(self, round_number: int) -> int:
        """How many transactions arrive in ``round_number`` (>= 0)."""
        raise NotImplementedError


class ConstantArrivals(ArrivalProcess):
    """Exactly ``batch`` transactions every round."""

    def __init__(self, batch: int):
        if batch < 0:
            raise ConfigurationError(f"batch cannot be negative, got {batch}")
        self.batch = batch

    def count_for_round(self, round_number: int) -> int:
        return self.batch


class PoissonArrivals(ArrivalProcess):
    """Poisson(rate) arrivals per round."""

    def __init__(self, rate: float, seed: int = 0):
        if rate < 0:
            raise ConfigurationError(f"rate cannot be negative, got {rate}")
        self.rate = rate
        self.rng = _stream_rng(seed, _POISSON_TAG)

    def count_for_round(self, round_number: int) -> int:
        return self.rng.poisson(self.rate)


class BurstyArrivals(ArrivalProcess):
    """Two-state modulated Poisson: quiet background, then flash bursts.

    A seeded Markov chain switches between a ``rate`` background and a
    ``burst_rate`` episode; ``p_burst`` is the per-round chance a burst
    starts, ``p_end`` the per-round chance it ends.  The chaos soak
    (:mod:`repro.streaming.soak`) drives its on-sale spikes with this.
    """

    def __init__(
        self,
        rate: float,
        burst_rate: float,
        p_burst: float = 0.05,
        p_end: float = 0.25,
        seed: int = 0,
    ):
        if rate < 0:
            raise ConfigurationError(f"rate cannot be negative, got {rate}")
        if burst_rate < rate:
            raise ConfigurationError(
                f"burst_rate must be >= rate, got {burst_rate} < {rate}"
            )
        for name, p in (("p_burst", p_burst), ("p_end", p_end)):
            if not 0.0 <= p <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {p}")
        self.rate = rate
        self.burst_rate = burst_rate
        self.p_burst = p_burst
        self.p_end = p_end
        self.rng = _stream_rng(seed, _BURSTY_TAG)
        self._bursting = False

    def count_for_round(self, round_number: int) -> int:
        # One switch draw then one count draw per round, burst or not,
        # so the stream position is independent of the path taken.
        switch = self.rng.random()
        if self._bursting:
            if switch < self.p_end:
                self._bursting = False
        elif switch < self.p_burst:
            self._bursting = True
        lam = self.burst_rate if self._bursting else self.rate
        return self.rng.poisson(lam)
