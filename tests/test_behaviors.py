"""Unit tests for collector behaviour models."""

from __future__ import annotations

import pytest

from repro.agents.behaviors import (
    AlwaysInvertBehavior,
    ConcealBehavior,
    FlipFlopBehavior,
    ForgeBehavior,
    HonestBehavior,
    MisreportBehavior,
    SleeperBehavior,
)
from repro.exceptions import ConfigurationError
from repro.ledger.transaction import Label


class TestHonest:
    def test_truthful_labels(self, rng):
        b = HonestBehavior()
        assert b.label_for(True, rng) is Label.VALID
        assert b.label_for(False, rng) is Label.INVALID

    def test_never_forges(self, rng):
        assert not any(HonestBehavior().should_forge(rng) for _ in range(100))


class TestMisreport:
    def test_rate_zero_is_honest(self, rng):
        b = MisreportBehavior(0.0)
        assert all(b.label_for(True, rng) is Label.VALID for _ in range(50))

    def test_rate_one_always_flips(self, rng):
        b = MisreportBehavior(1.0)
        assert all(b.label_for(True, rng) is Label.INVALID for _ in range(50))

    def test_intermediate_rate(self, rng):
        b = MisreportBehavior(0.3)
        flips = sum(b.label_for(True, rng) is Label.INVALID for _ in range(5000))
        assert flips / 5000 == pytest.approx(0.3, abs=0.03)

    def test_invalid_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            MisreportBehavior(1.5)


class TestConceal:
    def test_rate_one_always_silent(self, rng):
        b = ConcealBehavior(1.0)
        assert all(b.label_for(True, rng) is None for _ in range(50))

    def test_reports_truthfully_when_not_concealing(self, rng):
        b = ConcealBehavior(0.0)
        assert b.label_for(False, rng) is Label.INVALID

    def test_intermediate_rate(self, rng):
        b = ConcealBehavior(0.4)
        silences = sum(b.label_for(True, rng) is None for _ in range(5000))
        assert silences / 5000 == pytest.approx(0.4, abs=0.03)


class TestForge:
    def test_labels_honest(self, rng):
        b = ForgeBehavior(0.5)
        assert b.label_for(True, rng) is Label.VALID

    def test_forge_rate(self, rng):
        b = ForgeBehavior(0.25)
        forges = sum(b.should_forge(rng) for _ in range(5000))
        assert forges / 5000 == pytest.approx(0.25, abs=0.03)


def label_rounds(behavior, rng, sizes) -> list[list[Label | None]]:
    """Label ``sizes[k]`` valid transactions in round ``k``, closing each."""
    rounds = []
    for size in sizes:
        rounds.append([behavior.label_for(True, rng) for _ in range(size)])
        behavior.end_round()
    return rounds


class TestFlipFlop:
    def test_alternates_by_period(self, rng):
        b = FlipFlopBehavior(period=3)
        labels = [label for (label,) in label_rounds(b, rng, [1] * 9)]
        assert labels[:3] == [Label.VALID] * 3
        assert labels[3:6] == [Label.INVALID] * 3
        assert labels[6:9] == [Label.VALID] * 3

    def test_phase_switches_at_a_round_boundary(self, rng):
        b = FlipFlopBehavior(period=3)
        first, second = label_rounds(b, rng, [5, 2])
        assert first == [Label.VALID] * 5
        assert second == [Label.INVALID] * 2

    def test_bad_period(self):
        with pytest.raises(ConfigurationError):
            FlipFlopBehavior(period=0)


class TestSleeper:
    def test_honest_prefix(self, rng):
        b = SleeperBehavior(honest_prefix=5, p_after=1.0)
        labels = [label for (label,) in label_rounds(b, rng, [1] * 8)]
        assert labels[:5] == [Label.VALID] * 5
        assert labels[5:] == [Label.INVALID] * 3

    def test_defects_from_the_first_round_past_the_prefix(self, rng):
        b = SleeperBehavior(honest_prefix=5, p_after=1.0)
        rounds = label_rounds(b, rng, [4, 4, 2])
        assert rounds == [[Label.VALID] * 4, [Label.VALID] * 4, [Label.INVALID] * 2]

    def test_partial_defection(self, rng):
        b = SleeperBehavior(honest_prefix=0, p_after=0.5)
        flips = sum(b.label_for(True, rng) is Label.INVALID for _ in range(5000))
        assert flips / 5000 == pytest.approx(0.5, abs=0.03)

    def test_negative_prefix_rejected(self):
        with pytest.raises(ConfigurationError):
            SleeperBehavior(honest_prefix=-1)


class TestInvert:
    def test_always_opposite(self, rng):
        b = AlwaysInvertBehavior()
        assert b.label_for(True, rng) is Label.INVALID
        assert b.label_for(False, rng) is Label.VALID
