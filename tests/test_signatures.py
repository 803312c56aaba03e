"""Unit tests for the HMAC signature substrate."""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.hashing import canonical_encode
from repro.crypto.signatures import Signature, SigningKey, sign, verify_with_key
from repro.exceptions import SignatureError
from repro.ledger.transaction import make_signed_transaction


@pytest.fixture
def key() -> SigningKey:
    return SigningKey(owner="node-1", secret=b"\x01" * 32)


class TestSigningKey:
    def test_requires_owner(self):
        with pytest.raises(SignatureError):
            SigningKey(owner="", secret=b"\x01" * 32)

    def test_requires_long_secret(self):
        with pytest.raises(SignatureError):
            SigningKey(owner="n", secret=b"short")

    def test_fingerprint_stable_and_nonsecret(self, key):
        fp = key.fingerprint()
        assert fp == key.fingerprint()
        assert key.secret.hex() not in fp


class TestSignVerify:
    def test_roundtrip_bytes(self, key):
        sig = sign(key, b"hello")
        assert verify_with_key(key, b"hello", sig)

    def test_roundtrip_structured(self, key):
        message = canonical_encode(("tx", 42, {"k": "v"}))
        sig = sign(key, message)
        assert verify_with_key(key, message, sig)

    def test_rejects_tampered_message(self, key):
        sig = sign(key, b"hello")
        assert not verify_with_key(key, b"hellp", sig)

    def test_rejects_tampered_tag(self, key):
        sig = sign(key, b"hello")
        bad = Signature(signer=sig.signer, tag=bytes(32))
        assert not verify_with_key(key, b"hello", bad)

    def test_rejects_wrong_key(self, key):
        other = SigningKey(owner="node-1", secret=b"\x02" * 32)
        sig = sign(other, b"hello")
        assert not verify_with_key(key, b"hello", sig)

    def test_rejects_claimed_other_signer(self, key):
        # An adversary re-labels a signature with someone else's name.
        sig = sign(key, b"hello")
        forged = Signature(signer="victim", tag=sig.tag)
        victim_key = SigningKey(owner="victim", secret=b"\x03" * 32)
        assert not verify_with_key(victim_key, b"hello", forged)

    def test_signer_mismatch_with_key_owner(self, key):
        sig = sign(key, b"m")
        other_key = SigningKey(owner="other", secret=key.secret)
        assert not verify_with_key(other_key, b"m", sig)

    def test_signature_tag_length_enforced(self):
        with pytest.raises(SignatureError):
            Signature(signer="x", tag=b"too-short")

    def test_hex_is_tag_hex(self, key):
        sig = sign(key, b"zzz")
        assert sig.hex() == sig.tag.hex()

    def test_deterministic(self, key):
        assert sign(key, b"m").tag == sign(key, b"m").tag


@given(st.binary(min_size=0, max_size=128))
def test_property_sign_verify_roundtrip(message):
    """Every signed message verifies under the signing key."""
    key = SigningKey(owner="p", secret=b"\x07" * 32)
    assert verify_with_key(key, message, sign(key, message))


@given(st.binary(max_size=64), st.binary(max_size=64))
def test_property_verification_separates_messages(a, b):
    """A signature over a never verifies over a different b."""
    key = SigningKey(owner="p", secret=b"\x07" * 32)
    sig = sign(key, a)
    assert verify_with_key(key, b, sig) == (a == b)


class TestStateFromPickle:
    """A pickle carries fields only; loading one re-runs the constructor."""

    def test_rewritten_tx_id_is_rederived(self, key):
        tx = make_signed_transaction(key, {"amount": 3}, timestamp=1.0, nonce=0)
        tx_id = tx.tx_id
        wire = pickle.dumps(tx, protocol=3)
        loaded = pickle.loads(wire.replace(tx_id.encode(), b"f" * len(tx_id)))
        assert loaded.tx_id == tx_id

    def test_short_tag_is_rejected_on_load(self, key):
        sig = sign(key, b"m")
        wire = pickle.dumps(sig, protocol=3)  # SHORT_BINBYTES, no framing
        short = wire.replace(b"C\x20" + sig.tag, b"C\x10" + sig.tag[:16])
        assert short != wire
        with pytest.raises(SignatureError):
            pickle.loads(short)
