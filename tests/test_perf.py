"""The caches are the implementation; these tests hold them to the primitives.

* streaming ``hash_many`` equals ``hash_value`` of the tuple;
* ``IdentityManager.verify`` (which keeps each verdict on its signature)
  agrees, verdict for verdict, with ``signatures.verify_with_key`` under
  the sender's enrolled key, on random payload / tamper pairs, and a held
  verdict is read only by the IM that computed it, for the same bytes;
* a value a ledger record derives from its fields equals the same value
  on a fresh build, and survives ``pickle`` and ``copy`` (the forms in
  which these objects cross pool pipes and TCP frames), which carry the
  fields only;
* a cached reputation row equals a freshly built one after every kind of
  change to the vectors under it.

End states of whole seeded runs are pinned by ``tests/test_parity.py``.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
import random

import pytest

from repro.core.reputation import ReputationBook
from repro.crypto.hashing import canonical_encode, hash_many, hash_value
from repro.crypto.identity import IdentityManager, Role
from repro.crypto.signatures import Signature, SigningKey, sign, verify_with_key
from repro.ledger.block import GENESIS_PREV_HASH, Block
from repro.ledger.transaction import (
    CheckStatus,
    Label,
    TxRecord,
    make_labeled_transaction,
    make_signed_transaction,
)
from repro.obs import MetricsRegistry


class TestHashManyStreaming:
    def test_matches_tuple_hash(self):
        values = ["a", 1, 2.5, b"\x00\xff", ("nested", True), None]
        assert hash_many(values) == hash_value(tuple(values))

    def test_generator_input(self):
        assert hash_many(str(i) for i in range(100)) == hash_value(
            tuple(str(i) for i in range(100))
        )

    def test_empty(self):
        assert hash_many([]) == hash_value(())

    def test_order_sensitivity(self):
        assert hash_many(["a", "b"]) != hash_many(["b", "a"])


def _random_message(rng: random.Random) -> bytes:
    """A random sign/verify message: raw bytes or a canonical encoding."""
    kind = rng.randrange(3)
    if kind == 0:
        return rng.randbytes(rng.randrange(1, 64))
    if kind == 1:
        return canonical_encode(("tx", rng.randbytes(32), rng.random()))
    return canonical_encode((
        "upload",
        {"amount": rng.randrange(10_000), "memo": "x" * rng.randrange(8)},
        rng.randrange(1 << 30),
    ))


def _tampered(rng: random.Random, message, signature: Signature):
    """One random tamper: flip the tag, the claimed signer, or the message."""
    kind = rng.randrange(3)
    if kind == 0:
        i = rng.randrange(len(signature.tag))
        tag = bytearray(signature.tag)
        tag[i] ^= 1 << rng.randrange(8)
        return message, Signature(signer=signature.signer, tag=bytes(tag))
    if kind == 1:
        return message, Signature(signer="p_other", tag=signature.tag)
    return message + b"\x00", signature


def _reference_verify(im: IdentityManager, sender: str, message, signature) -> bool:
    """What ``verify`` means: the HMAC primitive under the sender's enrolled key."""
    if not im.is_enrolled(sender):
        return False
    return verify_with_key(im.record(sender).key, message, signature)


class TestVerifyCacheEquivalence:
    """Property: ``im.verify`` == ``verify_with_key``, verdict for verdict."""

    def test_random_payload_and_tamper_pairs(self):
        rng = random.Random(0xC0FFEE)
        im = IdentityManager(seed=1)
        key = im.enroll("p0", Role.PROVIDER)
        other = im.enroll("p_other", Role.PROVIDER)
        for _ in range(200):
            message = _random_message(rng)
            signature = sign(key, message)
            cases = [("p0", message, signature)]
            cases.append(("p0", *_tampered(rng, message, signature)))
            # Honest signature presented for the wrong sender id.
            cases.append(("p_other", message, signature))
            # A real member signing in its own name, presented as p0's.
            cases.append(("p0", message, sign(other, message)))
            cases.append(("nobody", message, signature))
            for sender, msg, sig in cases:
                expected = _reference_verify(im, sender, msg, sig)
                assert im.verify(sender, msg, sig) == expected
                # Ask twice so the second call exercises a hit.
                assert im.verify(sender, msg, sig) == expected

    def test_tampered_tag_after_a_cached_true(self):
        im = IdentityManager(seed=4)
        key = im.enroll("p0", Role.PROVIDER)
        message = canonical_encode(("tx", b"\x01" * 32, 0.5))
        signature = sign(key, message)
        assert im.verify("p0", message, signature)
        assert im.verify("p0", message, signature)  # now a cached True
        tag = bytearray(signature.tag)
        tag[0] ^= 1
        forged = Signature(signer="p0", tag=bytes(tag))
        assert not verify_with_key(key, message, forged)
        assert not im.verify("p0", message, forged)
        assert im.verify("p0", message, signature)

    def test_hit_and_miss_counters(self):
        obs = MetricsRegistry()
        im = IdentityManager(seed=2, obs=obs)
        key = im.enroll("p0", Role.PROVIDER)
        message = b"payload"
        signature = sign(key, message)
        hits = obs.counter("crypto_sig_cache_hits", "")
        misses = obs.counter("crypto_sig_cache_misses", "")
        assert im.verify("p0", message, signature)
        assert (misses.value, hits.value) == (1, 0)
        assert im.verify("p0", message, signature)
        assert (misses.value, hits.value) == (1, 1)
        # One verdict held per miss.
        assert obs.get("crypto_sig_cache_entries").value == misses.value

    def test_another_im_never_reads_this_verdict(self):
        # Two IMs enrol the same id under different keys.
        first, second = IdentityManager(seed=5), IdentityManager(seed=6)
        key = first.enroll("p0", Role.PROVIDER)
        second.enroll("p0", Role.PROVIDER)
        message = b"payload"
        signature = sign(key, message)
        assert first.verify("p0", message, signature)
        assert not second.verify("p0", message, signature)
        assert (second.sig_cache_misses, second.sig_cache_hits) == (1, 0)
        # The second IM's verdict is not the first's either.
        assert first.verify("p0", message, signature)
        assert (first.sig_cache_misses, first.sig_cache_hits) == (2, 0)

    def test_same_signature_on_changed_bytes_is_recomputed(self):
        im = IdentityManager(seed=3)
        key = im.enroll("p0", Role.PROVIDER)
        message = b"payload"
        signature = sign(key, message)
        assert im.verify("p0", message, signature)
        assert not im.verify("p0", message + b"\x00", signature)
        assert (im.sig_cache_misses, im.sig_cache_hits) == (2, 0)
        assert not im.verify("p0", message + b"\x00", signature)  # a held False
        assert im.verify("p0", message, signature)
        assert (im.sig_cache_misses, im.sig_cache_hits) == (3, 1)

    def test_copies_carry_no_verdict(self):
        im = IdentityManager(seed=3)
        key = im.enroll("p0", Role.PROVIDER)
        signature = sign(key, b"payload")
        assert im.verify("p0", b"payload", signature)
        assert signature.checked_by is im
        shipped = (
            pickle.loads(pickle.dumps(signature)),
            copy.copy(signature),
            copy.deepcopy(signature),
        )
        for copied in shipped:
            assert copied == signature and copied is not signature
            assert copied.checked_by is None
            misses = im.sig_cache_misses
            assert im.verify("p0", b"payload", copied)
            assert im.sig_cache_misses == misses + 1
        # The verdict is no field: a twin without one is equal, hashes and
        # prints the same.
        fresh = sign(key, b"payload")
        assert fresh.checked_by is None
        assert (fresh, hash(fresh), repr(fresh)) == (
            signature, hash(signature), repr(signature)
        )

    def test_forged_signer_is_rejected_before_the_verdict_is_read(self):
        im = IdentityManager(seed=3)
        key = im.enroll("p0", Role.PROVIDER)
        im.enroll("p1", Role.PROVIDER)
        message = b"payload"
        signature = sign(key, message)
        assert im.verify("p0", message, signature)  # holds a True
        # The honest signature presented as p1's, and p0's tag under p1's
        # name carrying a planted True: both fail before any verdict is read.
        forged = Signature(signer="p1", tag=signature.tag)
        for name in ("checked_by", "checked_message", "verdict"):
            object.__setattr__(forged, name, getattr(signature, name))
        assert not im.verify("p1", message, signature)
        assert not im.verify("p0", message, forged)
        assert not im.verify("nobody", message, signature)
        assert (im.sig_cache_misses, im.sig_cache_hits) == (1, 0)


def _ledger_objects() -> dict:
    """One of each ledger type that derives values, built bottom-up from one tx."""
    provider = SigningKey(owner="p0", secret=b"\x01" * 32)
    collector = SigningKey(owner="c0", secret=b"\x02" * 32)
    tx = make_signed_transaction(provider, {"amount": 7}, timestamp=1.5, nonce=3)
    record = TxRecord(tx=tx, label=Label.VALID, status=CheckStatus.UNCHECKED)
    return {
        "TransactionBody": tx.body,
        "SignedTransaction": tx,
        "LabeledTransaction": make_labeled_transaction(collector, tx, Label.INVALID),
        "TxRecord": record,
        "Block": Block(
            serial=1, tx_list=(record,), prev_hash=GENESIS_PREV_HASH,
            proposer="g0", round_number=1,
        ),
    }


def _derived_values(obj) -> dict:
    """Every value ``obj`` derives from its fields, by name."""
    if isinstance(obj, (TxRecord, Block)):
        return {"hash": obj.hash()}
    names = ("digest", "tx_id", "message")
    return {name: getattr(obj, name) for name in names if hasattr(obj, name)}


class TestMemoisedEncodings:
    """Derived values: computed from the fields, never carried beside them."""

    @pytest.mark.parametrize(
        "kind",
        ["TransactionBody", "SignedTransaction", "LabeledTransaction", "TxRecord", "Block"],
    )
    def test_memo_equals_fresh_computation_and_survives_pickle(self, kind):
        obj = _ledger_objects()[kind]
        first = _derived_values(obj)
        assert first and _derived_values(obj) == first
        # A fresh build from the fields alone derives the same values.
        fresh = _ledger_objects()[kind]
        assert fresh == obj and fresh is not obj
        assert _derived_values(fresh) == first
        assert _derived_values(dataclasses.replace(obj)) == first
        shipped = (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj))
        for copied in shipped:
            assert copied == obj
            assert _derived_values(copied) == first
        if isinstance(obj, Block):
            return
        # A record pickles as a constructor call on its fields: no derived
        # byte string rides along, the far side re-derives it.
        wire = pickle.dumps(obj)
        for value in first.values():
            assert (value.encode() if isinstance(value, str) else value) not in wire

    @pytest.mark.parametrize(
        "kind", ["TransactionBody", "SignedTransaction", "LabeledTransaction", "TxRecord"]
    )
    def test_records_are_slotted_and_stay_frozen(self, kind):
        obj = _ledger_objects()[kind]
        signature = sign(SigningKey(owner="p0", secret=b"\x01" * 32), b"m")
        for slotted in (obj, signature):
            assert not hasattr(slotted, "__dict__")
            with pytest.raises(dataclasses.FrozenInstanceError):
                slotted.extra = 1
        for name in _derived_values(obj):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, b"forged")
        assert pickle.loads(pickle.dumps(signature)) == signature
        # A derived name is a slot, never a field: ``==`` ignores it.
        derived = set(obj.__slots__) - {f.name for f in dataclasses.fields(obj)}
        assert derived
        twin = dataclasses.replace(obj)
        for name in derived:
            object.__setattr__(twin, name, b"other")
        assert twin == obj


class TestRowCacheEquivalence:
    """A cached ``selection_row`` equals a fresh ``_build_row``."""

    def test_row_follows_every_change_to_the_vectors(self):
        collectors = ("c0", "c1", "c2")
        book = ReputationBook("g0")
        for cid in collectors:
            book.register_collector(cid, ["p0", "p1"])

        def check():
            for provider in ("p0", "p1"):
                live = tuple(c for c in collectors if book.is_registered(c))
                row = book.selection_row(provider, live)
                again = book.selection_row(provider, live)
                fresh = book._build_row(provider, live)
                for got in (row, again):
                    assert got.weights == fresh.weights
                    assert got.total == fresh.total
                assert book.total_weight(provider, live) == sum(
                    book.weight(c, provider) for c in live
                )

        check()
        book.apply_revealed_truth("p0", {"c0": "wrong", "c1": "missed"}, 0.9, 0.5)
        check()
        retired = book.retire_collector("c1")
        check()
        book.readmit_collector("c1", ["p0", "p1"])
        assert book.vector("c1") is not retired
        check()
