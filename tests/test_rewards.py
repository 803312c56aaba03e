"""Unit tests for the reputation-linked reward distribution."""

from __future__ import annotations

import math

import pytest

from repro.core.params import ProtocolParams
from repro.core.reputation import ReputationBook
from repro.core.rewards import distribute_rewards, log_score
from repro.exceptions import ConfigurationError


def score(params, book, collector) -> float:
    """The raw score ``exp(log_score)``; underflows to 0.0 for pariahs."""
    return math.exp(log_score(params, book, collector))


def make_book(n=3, providers=("p0", "p1")) -> ReputationBook:
    book = ReputationBook(governor="g0", initial=1.0)
    for i in range(n):
        book.register_collector(f"c{i}", providers)
    return book


class TestScores:
    def test_fresh_collector_score_is_one(self):
        params = ProtocolParams()
        book = make_book()
        assert score(params, book, "c0") == pytest.approx(1.0)
        assert log_score(params, book, "c0") == pytest.approx(0.0)

    def test_score_formula(self):
        params = ProtocolParams(mu=2.0, nu=4.0)
        book = make_book()
        vec = book.vector("c0")
        vec.provider_weights["p0"] = 0.5
        vec.misreport = 3
        vec.forge = -1
        expected = 0.5 * 1.0 * (2.0**3) * (4.0**-1)
        assert score(params, book, "c0") == pytest.approx(expected)

    def test_misreport_increases_score_when_positive(self):
        params = ProtocolParams(mu=2.0)
        book = make_book()
        book.record_checked("c0", labeled_correctly=True)
        assert score(params, book, "c0") > score(
            params, book, "c1"
        )

    def test_forge_penalty_is_severe(self):
        params = ProtocolParams(nu=4.0)
        book = make_book()
        book.record_forge("c0")
        ratio = score(params, book, "c0") / score(
            params, book, "c1"
        )
        assert ratio == pytest.approx(0.25)

    def test_log_score_avoids_underflow(self):
        params = ProtocolParams()
        book = make_book()
        # Crush a weight far below float-min by repeated discounting.
        for _ in range(5000):
            book.vector("c0").scale("p0", 0.5)
        ls = log_score(params, book, "c0")
        assert math.isfinite(ls)
        assert ls < -100


class TestDistribution:
    def test_sums_to_pool(self):
        params = ProtocolParams(reward_pool_per_block=100.0)
        book = make_book()
        rewards = distribute_rewards(params, book)
        assert sum(rewards.values()) == pytest.approx(100.0)

    def test_equal_scores_equal_shares(self):
        params = ProtocolParams()
        rewards = distribute_rewards(params, make_book(n=4), pool=80.0)
        assert all(v == pytest.approx(20.0) for v in rewards.values())

    def test_misbehaving_collector_earns_less(self):
        params = ProtocolParams()
        book = make_book()
        book.vector("c0").provider_weights["p0"] = 0.2
        book.vector("c0").misreport = -3
        rewards = distribute_rewards(params, book, pool=100.0)
        assert rewards["c0"] < rewards["c1"]
        assert rewards["c1"] == pytest.approx(rewards["c2"])

    def test_monotone_in_misbehaviour(self):
        """The paper's incentive claim: more unreliable => less profit."""
        params = ProtocolParams()
        book = make_book(n=4)
        for i, penalty in enumerate([0, 1, 2, 3]):
            for _ in range(penalty):
                book.vector(f"c{i}").scale("p0", 0.855)
        rewards = distribute_rewards(params, book, pool=100.0)
        values = [rewards[f"c{i}"] for i in range(4)]
        assert values == sorted(values, reverse=True)

    def test_negative_pool_rejected(self):
        with pytest.raises(ConfigurationError):
            distribute_rewards(ProtocolParams(), make_book(), pool=-1.0)

    def test_empty_book(self):
        book = ReputationBook(governor="g0")
        assert distribute_rewards(ProtocolParams(), book) == {}

    def test_extreme_imbalance_no_nan(self):
        params = ProtocolParams()
        book = make_book()
        for _ in range(4000):
            book.vector("c0").scale("p0", 0.5)
        rewards = distribute_rewards(params, book, pool=100.0)
        assert all(math.isfinite(v) for v in rewards.values())
        assert sum(rewards.values()) == pytest.approx(100.0)
        assert rewards["c0"] == pytest.approx(0.0, abs=1e-6)
