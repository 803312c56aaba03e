"""Unit tests for the HMAC signature substrate."""

from __future__ import annotations

import hashlib
import io
import pickle
import sys
from dataclasses import fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.hashing import canonical_encode
from repro.crypto.signatures import FrozenSlots, SigningKey, sign, verify_with_key
from repro.exceptions import SignatureError
from repro.ledger.transaction import (
    CheckStatus,
    Label,
    TxRecord,
    make_labeled_transaction,
    make_signed_transaction,
)


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
        sign(key, b"hello")
        assert not verify_with_key(key, b"hello", bytes(32))

    def test_rejects_wrong_key(self, key):
        other = SigningKey(owner="node-1", secret=b"\x02" * 32)
        sig = sign(other, b"hello")
        assert not verify_with_key(key, b"hello", sig)

    def test_rejects_claimed_other_signer(self, key):
        # An adversary passes its own tag off as someone else's.
        sig = sign(key, b"hello")
        victim_key = SigningKey(owner="victim", secret=b"\x03" * 32)
        assert not verify_with_key(victim_key, b"hello", sig)

    def test_signature_tag_length_enforced(self, key):
        sig = sign(key, b"m")
        assert isinstance(sig, bytes) and len(sig) == 32
        for short in (sig[:31], sig[:16], b""):
            assert not verify_with_key(key, b"m", short)
        assert not verify_with_key(key, b"m", sig + b"\x00")

    def test_deterministic(self, key):
        assert sign(key, b"m") == sign(key, b"m")


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

    def test_short_tag_off_the_wire_fails_verification(self, key):
        tx = make_signed_transaction(key, {"amount": 3}, timestamp=1.0, nonce=0)
        tag = tx.provider_signature
        wire = pickle.dumps(tx, protocol=3)  # SHORT_BINBYTES, no framing
        short = wire.replace(b"C\x20" + tag, b"C\x10" + tag[:16])
        assert short != wire
        loaded = pickle.loads(short)
        assert loaded.provider_signature == tag[:16]
        assert not verify_with_key(key, loaded.signed_message(), loaded.provider_signature)


def frozen_slots_samples() -> dict[str, FrozenSlots]:
    """One fixed instance of each ``FrozenSlots`` class."""
    provider = SigningKey(owner="p0", secret=bytes(range(32)))
    collector = SigningKey(owner="c0", secret=bytes(range(32, 64)))
    tx = make_signed_transaction(provider, {"ride": 7, "to": "depot"}, 2.5, nonce=3)
    return {
        "TransactionBody": tx.body,
        "SignedTransaction": tx,
        "LabeledTransaction": make_labeled_transaction(collector, tx, Label.INVALID),
        "TxRecord": TxRecord(tx=tx, label=Label.INVALID, status=CheckStatus.UNCHECKED),
    }


class _FieldsPerPickle(pickle.Pickler):
    """Reduces a record the way ``FrozenSlots`` did before it cached its
    field getters: ``dataclasses.fields`` read again on every pickle."""

    def reducer_override(self, obj):
        if isinstance(obj, FrozenSlots):
            return type(obj), tuple(getattr(obj, f.name) for f in fields(obj))
        return NotImplemented


#: SHA-256 of ``pickle.dumps(sample, protocol)``, read under CPython 3.11
#: (which pickles an enum member by name; other versions spell it
#: differently).
PICKLE_PINS = {
    "TransactionBody": {
        2: "82d2f7c5dfe06979bc8dcb1838eb7ae425e05632b22da9340ecc501730b7f358",
        4: "32a00ad344d96bb0823e832dfa086071faf1c928364a2b842dd2eca93c13f10d",
        5: "97aeafe0f1c1db56bec7195a934ce380a0df8fde4991673d0b3901517bb8fc6e",
    },
    "SignedTransaction": {
        2: "aa25e72e84d92ac5dab0213ce8c2d4df8504e65eda468cb8c1bede0e1779cd44",
        4: "5361966dd222ac58799fd36b6e267b67c69126004d06808e536c7469b4150152",
        5: "47582291f484737f9035ec837d60f0341be4ae545ad9193900776cb30e9558e5",
    },
    "LabeledTransaction": {
        2: "8296700d60cd9a7517de0c54658efd6498507cf1be43a5fee0bbbc1378a55de1",
        4: "a1d5f9685d0e70979bfe376d2d77bf4a4619bbc4bf5e5a8db6d4e28b0c17f777",
        5: "ed9a4ac36a1cfda4258f53e439c78f53acb75613801f1241de5f54667361e1a1",
    },
    "TxRecord": {
        2: "ced5edfdf537a7f6c67b2bf0800485cdc231d1c44d083b3b7324d2b678c45073",
        4: "7b88e658c7c881649dfa4d1ef52809e8c725fdce09ec5011d92cd8b47a6755f5",
        5: "07df9a7c3552b10af04cb4b0771aa2932025da5f83a780d0d6354c8f58150f19",
    },
}


class TestPickleBytes:
    """Caching the field getters per class leaves every pickle byte alone."""

    @pytest.mark.parametrize("protocol", [2, 4, 5])
    @pytest.mark.parametrize("name", sorted(PICKLE_PINS))
    def test_same_bytes_as_reading_fields_per_pickle(self, name, protocol):
        sample = frozen_slots_samples()[name]
        buf = io.BytesIO()
        _FieldsPerPickle(buf, protocol).dump(sample)
        assert pickle.dumps(sample, protocol) == buf.getvalue()
        assert pickle.loads(buf.getvalue()) == sample

    @pytest.mark.skipif(
        sys.version_info[:2] != (3, 11), reason="pins read under CPython 3.11"
    )
    @pytest.mark.parametrize("protocol", [2, 4, 5])
    @pytest.mark.parametrize("name", sorted(PICKLE_PINS))
    def test_pinned_bytes(self, name, protocol):
        wire = pickle.dumps(frozen_slots_samples()[name], protocol)
        assert hashlib.sha256(wire).hexdigest() == PICKLE_PINS[name][protocol]
