"""Tests for the analysis layer: stats, metrics, complexity, reporting."""

from __future__ import annotations

import math

import pytest

from repro.analysis.complexity import fit_linear, fit_power_law, fit_quadratic
from repro.analysis.metrics import SweepTable, summarize_run
from repro.analysis.regret_curves import run_regret_curve
from repro.analysis.reporting import format_sweep, format_table
from repro.analysis.stats import (
    chi_squared_uniformity,
    empirical_tail,
    loglog_slope,
)
from repro.agents.behaviors import AlwaysInvertBehavior, HonestBehavior
from repro.core.params import ProtocolParams
from repro.core.protocol import ProtocolEngine
from repro.exceptions import ConfigurationError
from repro.network.topology import Topology
from repro.rng import default_rng
from repro.workloads.generator import BernoulliWorkload


class TestEmpiricalTail:
    def test_basic(self):
        assert empirical_tail([1, 2, 3, 4], 2.5) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            empirical_tail([], 1.0)


class TestChiSquared:
    def test_uniform_counts_consistent(self):
        rng = default_rng(1)
        counts = [0] * 4
        for _ in range(4000):
            counts[rng.integers(4)] += 1
        result = chi_squared_uniformity(counts, [0.25] * 4)
        assert result.consistent(alpha=0.01)

    def test_skewed_counts_rejected(self):
        result = chi_squared_uniformity([900, 40, 30, 30], [0.25] * 4)
        assert not result.consistent(alpha=0.01)
        assert result.p_value < 1e-6

    def test_proportional_expectation(self):
        # Counts matching a 2:1:1 stake split are consistent with it.
        result = chi_squared_uniformity([500, 251, 249], [0.5, 0.25, 0.25])
        assert result.consistent()

    def test_sf_matches_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        for stat, dof in [(1.0, 1), (5.0, 3), (20.0, 7), (3.3, 10)]:
            ours = chi_squared_uniformity(
                [100] * (dof + 1), [1 / (dof + 1)] * (dof + 1)
            )
            expected = float(scipy_stats.chi2.sf(ours.statistic, ours.dof))
            assert ours.p_value == pytest.approx(expected, rel=1e-6, abs=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            chi_squared_uniformity([1, 2], [0.5, 0.25, 0.25])

    def test_bad_proportions_rejected(self):
        with pytest.raises(ConfigurationError):
            chi_squared_uniformity([1, 2], [0.5, 0.4])


class TestLogLogSlope:
    def test_linear_data_slope_one(self):
        xs = [10, 20, 40, 80]
        ys = [3 * x for x in xs]
        assert loglog_slope(xs, ys) == pytest.approx(1.0)

    def test_quadratic_data_slope_two(self):
        xs = [10, 20, 40, 80]
        ys = [x * x for x in xs]
        assert loglog_slope(xs, ys) == pytest.approx(2.0)

    def test_sqrt_data_slope_half(self):
        xs = [100, 400, 1600]
        ys = [math.sqrt(x) for x in xs]
        assert loglog_slope(xs, ys) == pytest.approx(0.5)

    def test_zero_y_floored(self):
        assert math.isfinite(loglog_slope([1, 2, 4], [0.0, 1.0, 2.0]))


class TestComplexityFits:
    def test_power_law_recovers_exponent(self):
        xs = [4, 8, 16, 32, 64]
        ys = [2.0 * x**2 for x in xs]
        fit = fit_power_law(xs, ys)
        assert fit.coefficients[1] == pytest.approx(2.0)
        assert fit.r_squared == pytest.approx(1.0)
        assert fit.predict(10) == pytest.approx(200.0)

    def test_linear_fit(self):
        xs = [1, 2, 3, 4]
        ys = [3 * x + 1 for x in xs]
        fit = fit_linear(xs, ys)
        assert fit.coefficients[0] == pytest.approx(3.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_quadratic_fit(self):
        xs = [1, 2, 3, 4, 5]
        ys = [2 * x * x + x for x in xs]
        fit = fit_quadratic(xs, ys)
        assert fit.coefficients[0] == pytest.approx(2.0)

    def test_too_few_points_rejected(self):
        with pytest.raises(ConfigurationError):
            fit_linear([1, 2], [1, 2])


class TestSweepTable:
    def test_add_and_column(self):
        table = SweepTable(parameter="f")
        table.add(0.1, {"mistakes": 3.0})
        table.add(0.5, {"mistakes": 7.0})
        assert table.values == [0.1, 0.5]
        assert table.column("mistakes") == [3.0, 7.0]
        assert len(table) == 2

    def test_missing_metric_rejected(self):
        table = SweepTable(parameter="f")
        table.add(0.1, {"a": 1.0})
        with pytest.raises(ConfigurationError):
            table.column("b")

    def test_metric_names_first_seen_order(self):
        table = SweepTable(parameter="f")
        table.add(0.1, {"b": 1.0, "a": 2.0})
        table.add(0.2, {"c": 3.0})
        assert table.metric_names() == ["b", "a", "c"]


class TestReporting:
    def test_format_table_aligns(self):
        text = format_table(["name", "value"], [["x", 1], ["longer", 2.5]])
        lines = text.split("\n")
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) == 1  # all same width

    def test_format_table_width_mismatch(self):
        with pytest.raises(ConfigurationError):
            format_table(["a"], [["x", "y"]])

    def test_format_sweep(self):
        table = SweepTable(parameter="f")
        table.add(0.1, {"m": 1.0})
        text = format_sweep(table)
        assert "f" in text and "m" in text


class TestRunSummary:
    def test_summarize_engine_run(self):
        topo = Topology.regular(l=8, n=4, m=4, r=2)
        engine = ProtocolEngine(topo, ProtocolParams(f=0.5), seed=1)
        wl = BernoulliWorkload(topo.providers, p_valid=0.8, seed=2)
        for _ in range(3):
            engine.run_round(wl.take(16))
        engine.finalize()
        summary = summarize_run(engine)
        assert summary.rounds == 3
        assert summary.transactions == 48
        assert len(summary.governors) == 4
        assert summary.total_validations > 0
        for g in summary.governors:
            assert 0.0 <= g.unchecked_rate <= 1.0
            assert g.check_rate + g.unchecked_rate == pytest.approx(1.0)


class TestRegretCurve:
    def test_curve_shape_and_bound(self):
        curve = run_regret_curve(
            behavior_factory=lambda: [HonestBehavior()] * 2
            + [AlwaysInvertBehavior()] * 2,
            horizons=[50, 200, 800],
            seeds=[1, 2],
        )
        assert len(curve.points) == 3
        assert curve.all_within_bound()
        # Regret grows sublinearly.
        assert curve.scaling_exponent() < 1.0

    def test_empty_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            run_regret_curve(lambda: [HonestBehavior()] * 2, [], [1])
