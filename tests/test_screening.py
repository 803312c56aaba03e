"""Unit and statistical tests for Algorithm 2 (transaction screening)."""

from __future__ import annotations

import pytest

from repro.core.params import ProtocolParams
from repro.core.reputation import ReputationBook
from repro.core.screening import (
    ReportSet,
    decision_to_record,
    screen_transaction,
)
from repro.crypto.signatures import SigningKey
from repro.exceptions import ProtocolViolationError
from repro.ledger.transaction import CheckStatus, Label, make_signed_transaction

PROVIDER_KEY = SigningKey(owner="p0", secret=b"\x12" * 32)
COLLECTORS = ("c0", "c1", "c2", "c3")
_NONCE = iter(range(100_000))


def make_tx():
    return make_signed_transaction(PROVIDER_KEY, "x", 1.0, nonce=next(_NONCE))


def make_book(weights=None) -> ReputationBook:
    book = ReputationBook(governor="g0", initial=1.0)
    for c in COLLECTORS:
        book.register_collector(c, ["p0"])
    for c, w in (weights or {}).items():
        book.vector(c).provider_weights["p0"] = w
    return book


def reports(labels):
    return ReportSet(
        tx=make_tx(), provider="p0", labels=labels, linked_collectors=COLLECTORS
    )


ALWAYS_VALID = lambda tx: True
ALWAYS_INVALID = lambda tx: False


class TestReportSet:
    def test_provider_mismatch_rejected(self):
        with pytest.raises(ProtocolViolationError):
            ReportSet(
                tx=make_tx(),
                provider="p1",
                labels={"c0": Label.VALID},
                linked_collectors=COLLECTORS,
            )

    def test_unlinked_reporter_rejected(self):
        with pytest.raises(ProtocolViolationError):
            reports({"cX": Label.VALID})

    def test_empty_reports_rejected(self):
        with pytest.raises(ProtocolViolationError):
            reports({})


class TestScreeningDecision:
    def test_valid_label_always_checked(self, rng):
        params = ProtocolParams(f=0.9)
        book = make_book()
        for _ in range(50):
            decision = screen_transaction(
                params, book, reports({"c0": Label.VALID}), ALWAYS_VALID, rng
            )
            assert decision.checked
            assert decision.validation_result is True

    def test_single_invalid_reporter_probabilities(self, rng):
        # One reporter: Pr[chosen] = 1, so skip probability is exactly f.
        params = ProtocolParams(f=0.5)
        book = make_book()
        unchecked = 0
        n = 4000
        for _ in range(n):
            decision = screen_transaction(
                params, book, reports({"c0": Label.INVALID}), ALWAYS_INVALID, rng
            )
            if not decision.checked:
                unchecked += 1
        assert unchecked / n == pytest.approx(0.5, abs=0.03)

    def test_skip_probability_scales_with_choice_probability(self, rng):
        # Four equal-weight invalid reporters: Pr[chosen] = 1/4 each,
        # so skip prob = f/4.
        params = ProtocolParams(f=0.8)
        book = make_book()
        labels = {c: Label.INVALID for c in COLLECTORS}
        n = 4000
        unchecked = sum(
            1
            for _ in range(n)
            if not screen_transaction(
                params, book, reports(labels), ALWAYS_INVALID, rng
            ).checked
        )
        assert unchecked / n == pytest.approx(0.8 / 4, abs=0.03)

    def test_source_selection_proportional_to_weight(self, rng):
        book = make_book({"c0": 3.0, "c1": 1.0})
        params = ProtocolParams(f=0.5)
        labels = {"c0": Label.VALID, "c1": Label.VALID}
        chosen = {"c0": 0, "c1": 0}
        n = 4000
        for _ in range(n):
            decision = screen_transaction(
                params, book, reports(labels), ALWAYS_VALID, rng
            )
            chosen[decision.chosen_collector] += 1
        assert chosen["c0"] / n == pytest.approx(0.75, abs=0.03)

    def test_weight_sums(self, rng):
        book = make_book({"c0": 2.0, "c1": 1.0, "c2": 0.5})
        labels = {"c0": Label.VALID, "c1": Label.INVALID, "c2": Label.INVALID}
        decision = screen_transaction(
            ProtocolParams(f=0.5), book, reports(labels), ALWAYS_VALID, rng
        )
        assert decision.w_plus == pytest.approx(2.0)
        assert decision.w_minus == pytest.approx(1.5)
        assert decision.w_silent == pytest.approx(1.0)  # c3 stayed silent

    def test_validate_called_at_most_once(self, rng):
        calls = []
        def counting_validate(tx):
            calls.append(tx)
            return True
        book = make_book()
        screen_transaction(
            ProtocolParams(f=0.5),
            book,
            reports({"c0": Label.VALID}),
            counting_validate,
            rng,
        )
        assert len(calls) == 1

    def test_validate_not_called_when_unchecked(self):
        # Force an unchecked outcome: f close to 1, single reporter, and
        # an rng stub that always skips.
        class FixedRng:
            def choice(self, n, p=None):
                return 0
            def random(self):
                return 0.0  # below skip probability -> skip

        calls = []
        book = make_book()
        decision = screen_transaction(
            ProtocolParams(f=0.99),
            book,
            reports({"c0": Label.INVALID}),
            lambda tx: calls.append(tx) or True,
            FixedRng(),
        )
        assert not decision.checked
        assert calls == []

    def test_zero_weight_mass_rejected(self, rng):
        book = make_book()
        book.vector("c0").provider_weights["p0"] = 0.0
        with pytest.raises(ProtocolViolationError):
            screen_transaction(
                ProtocolParams(f=0.5),
                book,
                reports({"c0": Label.INVALID}),
                ALWAYS_INVALID,
                rng,
            )


class TestDecisionToRecord:
    def _decision(self, rng, labels, validate, f=0.5):
        return screen_transaction(
            ProtocolParams(f=f), make_book(), reports(labels), validate, rng
        )

    def test_checked_valid_recorded(self, rng):
        decision = self._decision(rng, {"c0": Label.VALID}, ALWAYS_VALID)
        record = decision_to_record(decision)
        assert record is not None
        assert record.label is Label.VALID
        assert record.status is CheckStatus.CHECKED

    def test_checked_invalid_discarded(self, rng):
        decision = self._decision(rng, {"c0": Label.VALID}, ALWAYS_INVALID)
        assert decision_to_record(decision) is None

    def test_unchecked_recorded_invalid(self):
        class FixedRng:
            def choice(self, n, p=None):
                return 0
            def random(self):
                return 0.0

        decision = screen_transaction(
            ProtocolParams(f=0.9),
            make_book(),
            reports({"c0": Label.INVALID}),
            ALWAYS_VALID,
            FixedRng(),
        )
        record = decision_to_record(decision)
        assert record is not None
        assert record.label is Label.INVALID
        assert record.status is CheckStatus.UNCHECKED
