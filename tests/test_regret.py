"""Unit and property tests for the paper's analytical bound formulas."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.regret import (
    hoeffding_tail,
    rwm_bound,
    theorem1_bound,
    theorem3_threshold,
    theorem4_bound,
)
from repro.exceptions import ConfigurationError


class TestRwmBound:
    def test_formula(self):
        beta = 0.5
        s_min = 10.0
        r = 8
        expected = (2 * math.log(8) - 2 * math.log(0.5) * 10.0) / 0.5
        assert rwm_bound(s_min, r, beta) == pytest.approx(expected)

    def test_zero_smin_leaves_log_term(self):
        assert rwm_bound(0.0, 8, 0.5) == pytest.approx(2 * math.log(8) / 0.5)

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            rwm_bound(0.0, 1, 0.5)
        with pytest.raises(ConfigurationError):
            rwm_bound(0.0, 8, 0.0)
        with pytest.raises(ConfigurationError):
            rwm_bound(0.0, 8, 1.0)


class TestTheorem1:
    def test_formula(self):
        assert theorem1_bound(5.0, 100, 8) == pytest.approx(
            5.0 + 16 * math.sqrt(math.log(8) * 100)
        )

    def test_sqrt_growth(self):
        b100 = theorem1_bound(0.0, 100, 8)
        b400 = theorem1_bound(0.0, 400, 8)
        assert b400 / b100 == pytest.approx(2.0)

    def test_invalid_horizon(self):
        with pytest.raises(ConfigurationError):
            theorem1_bound(0.0, 0, 8)


class TestTheorem3:
    def test_tail_formula(self):
        assert hoeffding_tail(1000, 0.05) == pytest.approx(math.exp(-2 * 0.0025 * 1000))

    def test_tail_decreases_in_n(self):
        assert hoeffding_tail(2000, 0.05) < hoeffding_tail(1000, 0.05)

    def test_tail_decreases_in_delta(self):
        assert hoeffding_tail(1000, 0.1) < hoeffding_tail(1000, 0.05)

    def test_threshold(self):
        assert theorem3_threshold(1000, f=0.5, delta=0.05) == pytest.approx(550.0)

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            hoeffding_tail(0, 0.1)
        with pytest.raises(ConfigurationError):
            hoeffding_tail(10, 0.0)
        with pytest.raises(ConfigurationError):
            theorem3_threshold(10, f=1.5, delta=0.1)


class TestTheorem4:
    def test_combines_theorems(self):
        s, n, f, delta, r = 3.0, 1000, 0.5, 0.05, 8
        expected = s + 16 * math.sqrt(math.log(r) * (f + delta) * n)
        assert theorem4_bound(s, n, f, delta, r) == pytest.approx(expected)

    def test_smaller_f_smaller_bound(self):
        assert theorem4_bound(0.0, 1000, 0.2, 0.05, 8) < theorem4_bound(
            0.0, 1000, 0.8, 0.05, 8
        )


def log_beta_linearisation_holds(beta: float) -> bool:
    """The proof's helper inequality ``-log(beta)/(1-beta) <= 17/2 - 8*beta``."""
    return -math.log(beta) / (1.0 - beta) <= 17.0 / 2.0 - 8.0 * beta + 1e-12


class TestLinearisation:
    @given(st.floats(min_value=0.1, max_value=0.9))
    def test_property_holds_on_proof_interval(self, beta):
        """-log(beta)/(1-beta) <= 17/2 - 8*beta on [0.1, 0.9] (paper claim)."""
        assert log_beta_linearisation_holds(beta)

    def test_fails_outside_interval(self):
        # Very small beta: -log(beta)/(1-beta) blows up past the line.
        assert not log_beta_linearisation_holds(1e-4)


@given(
    st.floats(min_value=0.0, max_value=100.0),
    st.integers(min_value=1, max_value=10_000),
    st.integers(min_value=2, max_value=64),
)
def test_property_theorem1_bound_monotone(s_min, horizon, r):
    """The bound grows with S_min, T and r, as the formula promises."""
    base = theorem1_bound(s_min, horizon, r)
    assert theorem1_bound(s_min + 1.0, horizon, r) > base
    assert theorem1_bound(s_min, horizon + 1, r) > base
    assert theorem1_bound(s_min, horizon, r + 1) > base
