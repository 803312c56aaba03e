"""Unit and property tests for reputation vectors and books."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.reputation import ReputationBook, ReputationVector
from repro.exceptions import ConfigurationError, ProtocolViolationError


def make_book() -> ReputationBook:
    book = ReputationBook(governor="g0", initial=1.0)
    book.register_collector("c0", ["p0", "p1"])
    book.register_collector("c1", ["p0", "p1"])
    return book


class TestReputationVector:
    def test_fresh_initialisation(self):
        vec = ReputationVector.fresh(["p0", "p1", "p2"], initial=2.0)
        assert len(vec.provider_weights) == 3
        assert vec.weight("p1") == 2.0
        assert vec.misreport == 0
        assert vec.forge == 0

    def test_fresh_requires_positive_initial(self):
        with pytest.raises(ConfigurationError):
            ReputationVector.fresh(["p0"], initial=0.0)

    def test_unknown_provider_raises(self):
        vec = ReputationVector.fresh(["p0"])
        with pytest.raises(ProtocolViolationError):
            vec.weight("p9")

    def test_scale(self):
        vec = ReputationVector.fresh(["p0"])
        vec.scale("p0", 0.5)
        assert vec.weight("p0") == 0.5

    def test_scale_requires_positive_factor(self):
        vec = ReputationVector.fresh(["p0"])
        with pytest.raises(ConfigurationError):
            vec.scale("p0", 0.0)

    def test_scale_floors_at_tiny_value(self):
        vec = ReputationVector.fresh(["p0"])
        for _ in range(100_000):
            vec.provider_weights["p0"] *= 0.5
            if vec.provider_weights["p0"] == 0.0:
                break
        vec.provider_weights["p0"] = 1.0
        for _ in range(3000):
            vec.scale("p0", 0.5)
        assert vec.weight("p0") > 0.0  # never collapses to exact zero


class TestReputationBook:
    def test_register_and_lookup(self):
        book = make_book()
        assert book.weight("c0", "p0") == 1.0
        assert set(book.collectors()) == {"c0", "c1"}

    def test_duplicate_registration_rejected(self):
        book = make_book()
        with pytest.raises(ProtocolViolationError):
            book.register_collector("c0", ["p0"])

    def test_unknown_collector_rejected(self):
        with pytest.raises(ProtocolViolationError):
            make_book().vector("cX")

    def test_record_forge(self):
        book = make_book()
        book.record_forge("c0")
        book.record_forge("c0")
        assert book.vector("c0").forge == -2

    def test_record_checked(self):
        book = make_book()
        book.record_checked("c0", labeled_correctly=True)
        book.record_checked("c0", labeled_correctly=False)
        book.record_checked("c0", labeled_correctly=False)
        assert book.vector("c0").misreport == -1

    def test_apply_revealed_truth(self):
        book = make_book()
        book.apply_revealed_truth(
            "p0",
            {"c0": "wrong", "c1": "missed"},
            beta=0.9,
            gamma=0.855,
        )
        assert book.weight("c0", "p0") == pytest.approx(0.855)
        assert book.weight("c1", "p0") == pytest.approx(0.9)
        # Other provider entries untouched.
        assert book.weight("c0", "p1") == 1.0

    def test_apply_revealed_truth_correct_unchanged(self):
        book = make_book()
        book.apply_revealed_truth("p0", {"c0": "correct"}, beta=0.9, gamma=0.855)
        assert book.weight("c0", "p0") == 1.0

    def test_unknown_outcome_rejected(self):
        book = make_book()
        with pytest.raises(ProtocolViolationError):
            book.apply_revealed_truth("p0", {"c0": "confused"}, beta=0.9, gamma=0.8)

    def test_weights_for_and_total(self):
        book = make_book()
        book.apply_revealed_truth("p0", {"c0": "wrong"}, beta=0.9, gamma=0.5)
        weights = book.weights_for("p0", ["c0", "c1"])
        assert weights == {"c0": 0.5, "c1": 1.0}
        assert book.total_weight("p0", ["c0", "c1"]) == pytest.approx(1.5)


@given(
    st.lists(
        st.sampled_from(["correct", "wrong", "missed"]), min_size=1, max_size=20
    ),
    st.floats(min_value=0.1, max_value=0.9),
)
def test_property_weights_monotone_nonincreasing(outcomes, beta):
    """Weights never increase: the update is purely multiplicative by <= 1."""
    book = ReputationBook(governor="g", initial=1.0)
    book.register_collector("c", ["p"])
    gamma = beta * beta  # the most aggressive legal gamma
    prev = 1.0
    for outcome in outcomes:
        book.apply_revealed_truth("p", {"c": outcome}, beta=beta, gamma=gamma)
        current = book.weight("c", "p")
        assert current <= prev + 1e-15
        assert current > 0
        prev = current


@given(st.integers(min_value=0, max_value=30), st.integers(min_value=0, max_value=30))
def test_property_wrong_hurts_more_than_missed(n_wrong, n_missed):
    """gamma <= beta: being wrong n times never beats missing n times."""
    beta = 0.9
    gamma = 0.855
    book = ReputationBook(governor="g", initial=1.0)
    book.register_collector("wrongful", ["p"])
    book.register_collector("silent", ["p"])
    for _ in range(n_wrong):
        book.apply_revealed_truth("p", {"wrongful": "wrong"}, beta=beta, gamma=gamma)
    for _ in range(n_wrong):
        book.apply_revealed_truth("p", {"silent": "missed"}, beta=beta, gamma=gamma)
    assert book.weight("wrongful", "p") <= book.weight("silent", "p") + 1e-15
