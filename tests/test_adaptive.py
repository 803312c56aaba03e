"""Tests for the adaptive-f (AIMD) controller extension."""

from __future__ import annotations

import pytest

from repro.core.adaptive import AdaptiveF
from repro.core.params import ProtocolParams
from repro.exceptions import ConfigurationError
from repro.rng import default_rng


class TestConstruction:
    def test_defaults_valid(self):
        ctl = AdaptiveF()
        assert ctl.f == 0.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"target_mistake_rate": 0.0},
            {"target_mistake_rate": 1.0},
            {"f_min": 0.0},
            {"f_min": 0.9, "f_max": 0.5},
            {"initial_f": 0.99},
            {"increase": 0.0},
            {"decrease": 1.0},
            {"decrease": 0.0},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            AdaptiveF(**kwargs)


class TestDynamics:
    def test_clean_reveals_raise_f(self):
        ctl = AdaptiveF(initial_f=0.3)
        for _ in range(50):
            ctl.observe_reveal(was_mistake=False)
        assert ctl.f > 0.3

    def test_mistake_cuts_f_multiplicatively(self):
        ctl = AdaptiveF(initial_f=0.8, decrease=0.5)
        ctl.observe_reveal(was_mistake=True)
        assert ctl.f == pytest.approx(0.4)

    def test_f_respects_bounds(self):
        ctl = AdaptiveF(initial_f=0.5, f_min=0.1, f_max=0.9)
        for _ in range(500):
            ctl.observe_reveal(was_mistake=False)
        assert ctl.f <= 0.9
        for _ in range(50):
            ctl.observe_reveal(was_mistake=True)
        assert ctl.f >= 0.1

    def test_observed_mistake_rate(self):
        ctl = AdaptiveF()
        ctl.observe_reveal(True)
        ctl.observe_reveal(False)
        ctl.observe_reveal(False)
        ctl.observe_reveal(False)
        assert ctl.observed_mistake_rate == pytest.approx(0.25)

    def test_additive_step_damps_near_target(self):
        """While the recent rate sits at/above target, increases stop."""
        ctl = AdaptiveF(
            target_mistake_rate=0.005, initial_f=0.5, rate_decay=0.99
        )
        ctl.observe_reveal(True)  # EWMA jumps to 0.01 > target
        f_after_cut = ctl.f
        assert ctl.recent_mistake_rate > ctl.target_mistake_rate
        ctl.observe_reveal(False)  # headroom still negative -> no step up
        assert ctl.f == pytest.approx(f_after_cut)

    def test_recovers_after_bad_phase(self):
        """The EWMA (unlike an all-time average) lets f climb again once
        mistakes stop — e.g. after reputation has demoted the defectors."""
        ctl = AdaptiveF(target_mistake_rate=0.02, initial_f=0.5)
        for _ in range(50):
            ctl.observe_reveal(True)
        assert ctl.f == ctl.f_min
        for _ in range(2000):
            ctl.observe_reveal(False)
        assert ctl.f > 0.5
        # The all-time average is still terrible; only the EWMA recovered.
        assert ctl.observed_mistake_rate > ctl.target_mistake_rate

    def test_converges_to_low_rate_regime(self):
        """Against a Bernoulli(q) mistake process with q << target, the
        controller climbs; with q >> target it collapses to the floor."""
        rng = default_rng(3)
        quiet = AdaptiveF(target_mistake_rate=0.05, initial_f=0.3)
        for _ in range(2000):
            quiet.observe_reveal(bool(rng.random() < 0.001))
        noisy = AdaptiveF(target_mistake_rate=0.05, initial_f=0.3)
        for _ in range(2000):
            noisy.observe_reveal(bool(rng.random() < 0.5))
        assert quiet.f > 0.6
        assert noisy.f == noisy.f_min

    def test_reacts_to_phase_change(self):
        """A sleeper-style phase change drags f back down quickly."""
        ctl = AdaptiveF(initial_f=0.3)
        for _ in range(500):
            ctl.observe_reveal(False)
        high = ctl.f
        for _ in range(5):
            ctl.observe_reveal(True)
        assert ctl.f < high * 0.2


class TestIntegration:
    def test_apply_to_params(self):
        ctl = AdaptiveF(initial_f=0.42)
        params = ctl.apply_to(ProtocolParams(f=0.9, beta=0.8))
        assert params.f == pytest.approx(0.42)
        assert params.beta == 0.8  # everything else preserved
