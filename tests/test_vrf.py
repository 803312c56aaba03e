"""Unit tests for the simulated VRF."""

from __future__ import annotations

import pytest

from repro.crypto.signatures import SigningKey
from repro.crypto.vrf import (
    OUTPUT_BYTES,
    VRFOutput,
    vrf_evaluate,
    vrf_verify,
)
from repro.exceptions import VRFError


@pytest.fixture
def key() -> SigningKey:
    return SigningKey(owner="g0", secret=b"\x05" * 32)


class TestEvaluation:
    def test_deterministic(self, key):
        a = vrf_evaluate(key, 1, 0, 1)
        b = vrf_evaluate(key, 1, 0, 1)
        assert a.value == b.value and a.proof == b.proof

    def test_distinct_inputs_distinct_outputs(self, key):
        base = vrf_evaluate(key, 1, 0, 1)
        assert vrf_evaluate(key, 2, 0, 1).value != base.value
        assert vrf_evaluate(key, 1, 1, 1).value != base.value
        assert vrf_evaluate(key, 1, 0, 2).value != base.value

    def test_distinct_keys_distinct_outputs(self, key):
        other = SigningKey(owner="g1", secret=b"\x06" * 32)
        assert vrf_evaluate(key, 1, 0, 1).value != vrf_evaluate(other, 1, 0, 1).value

    def test_negative_inputs_rejected(self, key):
        with pytest.raises(VRFError):
            vrf_evaluate(key, -1, 0, 1)
        with pytest.raises(VRFError):
            vrf_evaluate(key, 0, -1, 1)
        with pytest.raises(VRFError):
            vrf_evaluate(key, 0, 0, -1)

    def test_as_int_matches_bytes(self, key):
        out = vrf_evaluate(key, 3, 1, 2)
        assert out.as_int() == int.from_bytes(out.value, "big")


class TestVerification:
    def test_honest_output_verifies(self, key):
        out = vrf_evaluate(key, 5, 2, 3)
        assert vrf_verify(key, out)

    def test_tampered_value_rejected(self, key):
        out = vrf_evaluate(key, 5, 2, 3)
        bad = VRFOutput(owner=out.owner, alpha=out.alpha, value=bytes(32), proof=out.proof)
        assert not vrf_verify(key, bad)

    def test_tampered_proof_rejected(self, key):
        out = vrf_evaluate(key, 5, 2, 3)
        bad = VRFOutput(owner=out.owner, alpha=out.alpha, value=out.value, proof=bytes(32))
        assert not vrf_verify(key, bad)

    def test_wrong_owner_rejected(self, key):
        out = vrf_evaluate(key, 5, 2, 3)
        imposter = VRFOutput(owner="g9", alpha=out.alpha, value=out.value, proof=out.proof)
        assert not vrf_verify(key, imposter)

    def test_grinding_a_better_alpha_rejected(self, key):
        # A governor cannot claim an output computed for different (r, j, u).
        out = vrf_evaluate(key, 5, 2, 3)
        other = vrf_evaluate(key, 6, 2, 3)
        spliced = VRFOutput(
            owner=out.owner, alpha=out.alpha, value=other.value, proof=other.proof
        )
        assert not vrf_verify(key, spliced)


def unit(output) -> float:
    """The VRF value mapped to [0, 1)."""
    return output.as_int() / float(1 << (8 * OUTPUT_BYTES))


class TestDistribution:
    def test_unit_interval_range(self, key):
        xs = [
            unit(vrf_evaluate(key, r, 0, 1)) for r in range(200)
        ]
        assert all(0.0 <= x < 1.0 for x in xs)

    def test_rough_uniformity(self, key):
        # Mean of 2000 draws should be near 0.5 (pseudorandomness check).
        xs = [unit(vrf_evaluate(key, r, 0, 1)) for r in range(2000)]
        assert abs(sum(xs) / len(xs) - 0.5) < 0.03
        # And spread across quartiles.
        hist = [0] * 4
        for x in xs:
            hist[int(x * 4)] += 1
        assert min(hist) > 2000 / 4 * 0.8
