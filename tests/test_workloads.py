"""Tests for workload generators and arrival processes."""

from __future__ import annotations

from statistics import fmean

import pytest

from repro.exceptions import ConfigurationError
from repro.workloads.arrivals import (
    BurstyArrivals,
    PoissonArrivals,
)
from repro.workloads.generator import (
    BernoulliWorkload,
    BurstyWorkload,
    PerProviderWorkload,
)

PROVIDERS = [f"p{i}" for i in range(5)]


class TestBernoulli:
    def test_round_robin_providers(self):
        wl = BernoulliWorkload(PROVIDERS, p_valid=0.5, seed=1)
        specs = wl.take(10)
        assert [s.provider for s in specs] == PROVIDERS * 2

    def test_validity_rate(self):
        wl = BernoulliWorkload(PROVIDERS, p_valid=0.7, seed=1)
        specs = wl.take(5000)
        rate = sum(s.is_valid for s in specs) / 5000
        assert rate == pytest.approx(0.7, abs=0.03)

    def test_deterministic(self):
        a = BernoulliWorkload(PROVIDERS, p_valid=0.5, seed=9).take(50)
        b = BernoulliWorkload(PROVIDERS, p_valid=0.5, seed=9).take(50)
        assert [s.is_valid for s in a] == [s.is_valid for s in b]

    def test_payloads_unique(self):
        wl = BernoulliWorkload(PROVIDERS, seed=1)
        payloads = [str(s.payload) for s in wl.take(20)]
        assert len(set(payloads)) == 20

    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            BernoulliWorkload([], p_valid=0.5)
        with pytest.raises(ConfigurationError):
            BernoulliWorkload(PROVIDERS, p_valid=1.5)


class TestPerProvider:
    def test_rates_assigned_once(self):
        wl = PerProviderWorkload(PROVIDERS, seed=2)
        assert set(wl.rates) == set(PROVIDERS)
        assert all(0.0 <= r <= 1.0 for r in wl.rates.values())

    def test_provider_heterogeneity_realised(self):
        wl = PerProviderWorkload(PROVIDERS, alpha=2.0, beta=2.0, seed=3)
        specs = wl.take(10_000)
        by_provider = {p: [] for p in PROVIDERS}
        for s in specs:
            by_provider[s.provider].append(s.is_valid)
        empirical = {p: fmean(v) for p, v in by_provider.items()}
        for p in PROVIDERS:
            assert empirical[p] == pytest.approx(wl.rates[p], abs=0.06)

    def test_invalid_beta_params(self):
        with pytest.raises(ConfigurationError):
            PerProviderWorkload(PROVIDERS, alpha=0.0)
        with pytest.raises(ConfigurationError):
            PerProviderWorkload(PROVIDERS, beta=2.5)


class TestBursty:
    def test_regime_switching_changes_rates(self):
        wl = BurstyWorkload(PROVIDERS, p_good=0.95, p_bad=0.1, stay=0.9, seed=4)
        specs = wl.take(5000)
        overall = sum(s.is_valid for s in specs) / 5000
        # Mixture: strictly between the two regime rates.
        assert 0.1 < overall < 0.95

    def test_invalid_probability(self):
        with pytest.raises(ConfigurationError):
            BurstyWorkload(PROVIDERS, stay=1.2)


class TestArrivals:
    def test_poisson_mean(self):
        arr = PoissonArrivals(rate=10.0, seed=5)
        counts = [arr.count_for_round(r) for r in range(2000)]
        assert fmean(counts) == pytest.approx(10.0, abs=0.5)

    def test_poisson_negative_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            PoissonArrivals(rate=-1.0)

    def test_bursty_mean_between_rates(self):
        arr = BurstyArrivals(5.0, 50.0, p_burst=0.2, p_end=0.3, seed=4)
        counts = [arr.count_for_round(r) for r in range(2000)]
        assert 5.0 < fmean(counts) < 50.0
        assert min(counts) >= 0

    def test_bursty_burst_below_background_rejected(self):
        with pytest.raises(ConfigurationError):
            BurstyArrivals(10.0, 5.0)

    def test_bursty_switch_probabilities_validated(self):
        with pytest.raises(ConfigurationError):
            BurstyArrivals(5.0, 50.0, p_burst=1.5)


class TestArrivalStreamIsolation:
    """Each arrival class draws from its own (seed, stream-tag) RNG.

    Before the fix, every process seeded ``default_rng(seed)`` directly,
    so two different processes sharing one seed replayed *correlated*
    count sequences.  The golden pins also freeze the derived streams:
    any change to the tag constants or the per-round draw pattern shows
    up here.
    """

    def test_golden_poisson_stream(self):
        arr = PoissonArrivals(10.0, seed=7)
        assert [arr.count_for_round(r) for r in range(8)] == [
            6, 15, 8, 12, 9, 11, 8, 5,
        ]

    def test_golden_bursty_stream(self):
        arr = BurstyArrivals(5.0, 50.0, p_burst=0.2, p_end=0.3, seed=7)
        assert [arr.count_for_round(r) for r in range(8)] == [
            6, 52, 49, 44, 61, 8, 5, 4,
        ]

    def test_same_seed_different_processes_decorrelated(self):
        # Two processes that are both effectively Poisson(10) under one
        # seed: identical sequences would mean a shared RNG stream.
        poisson = PoissonArrivals(10.0, seed=7)
        flat_bursty = BurstyArrivals(10.0, 10.0, p_burst=0.0, seed=7)
        streams = [
            [arr.count_for_round(r) for r in range(12)]
            for arr in (poisson, flat_bursty)
        ]
        assert streams[0] != streams[1]

    def test_same_seed_same_process_reproduces(self):
        a = BurstyArrivals(5.0, 50.0, p_burst=0.2, p_end=0.3, seed=11)
        b = BurstyArrivals(5.0, 50.0, p_burst=0.2, p_end=0.3, seed=11)
        assert [a.count_for_round(r) for r in range(30)] == [
            b.count_for_round(r) for r in range(30)
        ]

    def test_bursty_stream_position_path_independent(self):
        # One switch draw + one count draw per round regardless of the
        # regime path, so two parameterisations share the same underlying
        # draw positions: with p_burst=0 the chain never leaves the
        # background regime and the count draws stay aligned.
        never = BurstyArrivals(10.0, 100.0, p_burst=0.0, p_end=1.0, seed=3)
        also_never = BurstyArrivals(10.0, 500.0, p_burst=0.0, p_end=0.5, seed=3)
        assert [never.count_for_round(r) for r in range(20)] == [
            also_never.count_for_round(r) for r in range(20)
        ]
