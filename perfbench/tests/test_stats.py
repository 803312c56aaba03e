import statistics

import pytest

from perfbench.stats import (
    MIN_BEYOND,
    TooFewSamples,
    percentile,
    quartiles,
    samples_needed,
    spread,
)


def test_samples_needed_follows_the_ten_beyond_rule():
    assert samples_needed(0.95) == 200
    assert samples_needed(0.99) == 1000
    assert samples_needed(0.50) == 20
    assert samples_needed(0.05) == 200  # the rule is symmetric


def test_percentile_refuses_a_quantile_the_sample_cannot_support():
    with pytest.raises(TooFewSamples):
        percentile(list(range(199)), 0.95)
    with pytest.raises(TooFewSamples):
        percentile(list(range(MIN_BEYOND * 2 - 1)), 0.5)
    assert percentile(list(range(200)), 0.95) == pytest.approx(189.05)


def test_percentile_interpolates_and_ignores_input_order():
    samples = [float(v) for v in range(100, 0, -1)]
    assert percentile(samples, 0.5) == pytest.approx(50.5)
    assert percentile(samples, 0.25) == pytest.approx(25.75)


@pytest.mark.parametrize("q", [0.0, 1.0, -0.1, 1.5])
def test_percentile_rejects_a_quantile_outside_the_open_interval(q):
    with pytest.raises(ValueError):
        percentile(list(range(1000)), q)


def test_quartiles_match_the_contract_estimator():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.3, 5.8, 9.7, 9.3]
    assert quartiles(values) == tuple(statistics.quantiles(values, n=4))
    q1, median, q3 = quartiles(values)
    assert spread(values) == pytest.approx((q3 - q1) / median)
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)
    assert spread([7.0]) == 0.0
