"""Unit and property tests for protocol parameters and the β/γ rules."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.params import (
    DEFAULT_PARAMS,
    ProtocolParams,
    gamma_for,
    tuned_beta,
    validate_discounts,
)
from repro.exceptions import ConfigurationError


class TestGammaRule:
    def test_paper_example_beta_09(self):
        # With beta = 0.9 the floor branch is (0.81 + 0.9)/2 = 0.855.
        assert gamma_for(0.9, 0.0) == pytest.approx(0.855)

    def test_adaptive_branch_dominates_at_high_loss(self):
        beta = 0.9
        gamma = gamma_for(beta, 2.0)
        adaptive = (beta - 1) / 2.0 + (beta + 1) / 2.0
        assert gamma == pytest.approx(adaptive)

    def test_zero_loss_uses_floor(self):
        assert gamma_for(0.5, 0.0) == pytest.approx((0.25 + 0.5) / 2)

    def test_bad_beta_rejected(self):
        with pytest.raises(ConfigurationError):
            gamma_for(0.0, 1.0)
        with pytest.raises(ConfigurationError):
            gamma_for(1.0, 1.0)

    def test_bad_loss_rejected(self):
        with pytest.raises(ConfigurationError):
            gamma_for(0.5, -0.1)
        with pytest.raises(ConfigurationError):
            gamma_for(0.5, 2.1)

    @given(
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=1e-6, max_value=2.0),
    )
    def test_property_paper_inequality_chain(self, beta, loss):
        """gamma_for always satisfies beta^2 <= gamma <= beta <= (gamma-1)L/2+1 <= 1."""
        gamma = gamma_for(beta, loss)
        validate_discounts(beta, gamma, loss)

    @given(
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=1e-6, max_value=2.0),
    )
    def test_property_gamma_in_unit_interval(self, beta, loss):
        gamma = gamma_for(beta, loss)
        assert 0.0 < gamma < 1.0

    @given(
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=1e-6, max_value=2.0),
    )
    def test_property_proof_lower_bound(self, beta, loss):
        """gamma >= 2(beta-1)/L + 1, the inequality the potential proof uses."""
        gamma = gamma_for(beta, loss)
        assert gamma >= 2.0 * (beta - 1.0) / loss + 1.0 - 1e-12


class TestValidateDiscounts:
    def test_violation_detected_gamma_above_beta(self):
        with pytest.raises(ConfigurationError):
            validate_discounts(beta=0.5, gamma=0.6, loss=1.0)

    def test_violation_detected_gamma_below_beta_squared(self):
        with pytest.raises(ConfigurationError):
            validate_discounts(beta=0.9, gamma=0.5, loss=1.0)

    def test_violation_detected_beta_above_upper(self):
        # beta > (gamma-1)*L/2 + 1 for aggressive gamma and high loss.
        with pytest.raises(ConfigurationError):
            validate_discounts(beta=0.95, gamma=0.9025, loss=2.0)


class TestTunedBeta:
    def test_matches_formula(self):
        expected = 1 - 4 * math.sqrt(math.log2(8) / 4800)
        assert tuned_beta(8, 4800) == pytest.approx(expected)

    def test_paper_r8_t4800_is_exactly_09(self):
        # The paper: at r = 8, T <= 4800 keeps the unclamped value <= 0.9;
        # equality holds exactly at T = 4800 (log2(8) = 3).
        assert tuned_beta(8, 4800) == pytest.approx(0.9)
        assert tuned_beta(8, 4000) < 0.9

    def test_clamped_low(self):
        assert tuned_beta(8, 2) == 0.1

    def test_clamped_high(self):
        assert tuned_beta(2, 10**9) == 0.9

    def test_monotone_in_horizon(self):
        values = [tuned_beta(8, t) for t in (50, 200, 1000, 4000)]
        assert values == sorted(values)

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            tuned_beta(1, 100)
        with pytest.raises(ConfigurationError):
            tuned_beta(8, 0)


class TestProtocolParams:
    def test_defaults_valid(self):
        assert 0 < DEFAULT_PARAMS.f < 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"f": 0.0},
            {"f": 1.0},
            {"beta": 0.0},
            {"beta": 1.0},
            {"mu": 1.0},
            {"nu": 0.5},
            {"argue_window": 0},
            {"b_limit": 0},
            {"delta": 0.0},
            {"initial_reputation": 0.0},
            {"reward_pool_per_block": -1.0},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ProtocolParams(**kwargs)
