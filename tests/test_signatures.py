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
from repro.crypto.signatures import (
    FrozenSlots,
    Signature,
    SigningKey,
    sign,
    verify_with_key,
)
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


def frozen_slots_samples() -> dict[str, FrozenSlots]:
    """One fixed instance of each ``FrozenSlots`` class."""
    provider = SigningKey(owner="p0", secret=bytes(range(32)))
    collector = SigningKey(owner="c0", secret=bytes(range(32, 64)))
    tx = make_signed_transaction(provider, {"ride": 7, "to": "depot"}, 2.5, nonce=3)
    return {
        "Signature": tx.provider_signature,
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


#: SHA-256 of ``pickle.dumps(sample, protocol)`` before the field getters
#: were cached, read under CPython 3.11 (which pickles an enum member by
#: name; other versions spell it differently).
PICKLE_PINS = {
    "Signature": {
        2: "a9a3d4b4a6ca970d3a106e2bf6496bae9288a6548911d6f3e876618351675c1b",
        4: "1f5d6a476e17840b44999a4c6e2ddaa745ac22710982baa5698eae8cc92642b3",
        5: "94919286a7bd778abdb695308234c31d5e36b6dfbd5d236da46ea233cf663ea6",
    },
    "TransactionBody": {
        2: "82d2f7c5dfe06979bc8dcb1838eb7ae425e05632b22da9340ecc501730b7f358",
        4: "32a00ad344d96bb0823e832dfa086071faf1c928364a2b842dd2eca93c13f10d",
        5: "97aeafe0f1c1db56bec7195a934ce380a0df8fde4991673d0b3901517bb8fc6e",
    },
    "SignedTransaction": {
        2: "a9aef8dcaedc1598055b3cfd18952eb7d29a4b996d684b2f222b4c14bec5584a",
        4: "be291aedd79dd650dbce5e38d5c142d1b76c3369fe495044a1e105c9794d7bdd",
        5: "d505364897369a6e2576c4a9106062327766246d409d97fec5b6c90627e22b6e",
    },
    "LabeledTransaction": {
        2: "b4c2957948da3f47bbb5e2f000c497ee81764e42fe239d726d08412df7366a61",
        4: "42d732ba914343407881ae62a5348a22ca3f2c2acf90e90af068f70e5d5871c0",
        5: "61cb3859f4d55bb8ba5557ed5698eb4646b3d050c1523f64abf5dc5eb73a2fac",
    },
    "TxRecord": {
        2: "168d91d44a8f816c2cac8f2aad5e7e355b3a8bb38c8136a9f034596cd685107f",
        4: "ad3da66deb7222370904c5304d614da405e9d8e6befb4406a8a39a8f033b510d",
        5: "188de48104e61b1f00b116db55bbf69806de45e6546e9239da786046a4fdca0f",
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
