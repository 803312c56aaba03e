"""The caches are the implementation; these tests hold them to the primitives.

* streaming ``hash_many`` equals ``hash_value`` of the tuple;
* ``IdentityManager.verify`` (which keeps each verdict on the signed
  record it checked) agrees, verdict for verdict, with
  ``signatures.verify_with_key`` over the record's signed bytes under its
  signer's enrolled key, on random payload / tamper pairs of each of the
  seven record kinds; a held verdict is read only by the IM that computed
  it, never by a new record around the same signature, and no copy
  carries one;
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

from repro.consensus.messages import StateAck, ack_message, make_vote
from repro.consensus.stake import StakeLedger, make_transfer
from repro.consensus.stake_consensus import make_proposal
from repro.core.reputation import ReputationBook
from repro.crypto.hashing import hash_many, hash_value
from repro.crypto.identity import IdentityManager, Role
from repro.crypto.signatures import SignedRecord, SigningKey, sign, verify_with_key
from repro.ledger.block import GENESIS_PREV_HASH, Block
from repro.ledger.transaction import (
    CheckStatus,
    Label,
    TxRecord,
    make_labeled_transaction,
    make_signed_transaction,
)
from repro.obs import MetricsRegistry
from repro.sharding.receipts import make_receipt


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


def _enrolled(seed: int = 1) -> tuple[IdentityManager, dict[str, SigningKey]]:
    """An IM with every signer the seven record kinds need, and their keys."""
    im = IdentityManager(seed=seed)
    roles = {
        "p0": Role.PROVIDER, "p_other": Role.PROVIDER, "c0": Role.COLLECTOR,
        "g0": Role.GOVERNOR, "g1": Role.GOVERNOR,
    }
    return im, {node: im.enroll(node, role) for node, role in roles.items()}


def _random_record(kind: str, keys: dict[str, SigningKey], rng: random.Random):
    """A record of ``kind`` over random content, signed by its maker."""
    round_number = rng.randrange(1, 1000)
    if kind in ("tx", "labeled"):
        payload = {"amount": rng.randrange(10_000), "memo": "x" * rng.randrange(8)}
        tx = make_signed_transaction(
            keys["p0"], payload, rng.random(), nonce=rng.randrange(1 << 30)
        )
        if kind == "tx":
            return tx
        return make_labeled_transaction(keys["c0"], tx, rng.choice(list(Label)))
    if kind == "vote":
        return make_vote(keys["g0"], rng.randrange(1, 1000), rng.randbytes(32), round_number)
    if kind == "receipt":
        return make_receipt(keys["g0"], 0, 1, rng.randbytes(16).hex(), round_number)
    transfer = make_transfer(keys["g0"], "g1", rng.randrange(1, 5), rng.randrange(1 << 20))
    if kind == "transfer":
        return transfer
    if kind == "proposal":
        prev = StakeLedger.from_balances({"g0": 5, "g1": 5})
        return make_proposal(keys["g0"], round_number, prev, [transfer])
    digest = rng.randbytes(32)
    signature = sign(keys["g1"], ack_message(round_number, digest))
    return StateAck(round_number, "g1", digest, signature)


#: kind -> (claimed-signer field, signature field, field -> another value
#: of a field the signed bytes cover, a claim in another signer's name).
RECORD_KINDS = {
    "tx": (
        "provider", "provider_signature",
        lambda r: {"timestamp": r.timestamp + 1.0},
        lambda r, who: {"body": dataclasses.replace(r.body, provider=who)},
    ),
    "labeled": (
        "collector", "collector_signature",
        lambda r: {"label": Label(-int(r.label))},
        lambda r, who: {"collector": who},
    ),
    "vote": (
        "governor", "signature",
        lambda r: {"block_hash": bytes(b ^ 1 for b in r.block_hash)},
        lambda r, who: {"governor": who},
    ),
    "proposal": (
        "leader", "signature",
        lambda r: {"transfers_digest": bytes(b ^ 1 for b in r.transfers_digest)},
        lambda r, who: {"leader": who},
    ),
    "ack": (
        "governor", "signature",
        lambda r: {"proposal_digest": bytes(b ^ 1 for b in r.proposal_digest)},
        lambda r, who: {"governor": who},
    ),
    "transfer": (
        "sender", "signature",
        lambda r: {"amount": r.amount + 1},
        lambda r, who: {"sender": who},
    ),
    "receipt": (
        "proposer", "signature",
        lambda r: {"home_serial": r.home_serial + 1},
        lambda r, who: {"proposer": who},
    ),
}


def _with_signature(kind: str, record, tag: bytes):
    """A new record of ``kind``: ``record``'s fields under the signature ``tag``."""
    return dataclasses.replace(record, **{RECORD_KINDS[kind][1]: tag})


def _tampered(kind: str, record, keys: dict[str, SigningKey], rng: random.Random):
    """One random tamper, as a new record: a flipped tag bit, the honest tag
    on a claim in another member's name, other signed bytes under the same
    tag, or another member's honest signature over the same bytes."""
    _signer_field, signature_field, changed, claim = RECORD_KINDS[kind]
    tamper = rng.randrange(4)
    if tamper == 0:
        tag = bytearray(getattr(record, signature_field))
        tag[rng.randrange(len(tag))] ^= 1 << rng.randrange(8)
        return _with_signature(kind, record, bytes(tag))
    if tamper == 1:
        return dataclasses.replace(record, **claim(record, "p_other"))
    if tamper == 2:
        return dataclasses.replace(record, **changed(record))
    return _with_signature(kind, record, sign(keys["p_other"], record.signed_message()))


def _reference_verify(im: IdentityManager, kind: str, record) -> bool:
    """What ``verify`` means: the HMAC primitive over the record's signed bytes
    under its claimed signer's enrolled key."""
    signer_field, signature_field, _changed, _claim = RECORD_KINDS[kind]
    sender = getattr(record, signer_field)
    if not im.is_enrolled(sender):
        return False
    return verify_with_key(
        im.record(sender).key, record.signed_message(), getattr(record, signature_field)
    )


def _has_verdict(record) -> bool:
    return hasattr(record, "checked_by") or hasattr(record, "verdict")


class TestVerifyCacheEquivalence:
    """Property: ``im.verify`` == ``verify_with_key``, verdict for verdict,
    for each of the seven signed record kinds."""

    def test_random_payload_and_tamper_pairs(self):
        rng = random.Random(0xC0FFEE)
        im, keys = _enrolled()
        for kind in RECORD_KINDS:
            for _ in range(40):
                record = _random_record(kind, keys, rng)
                tampered = _tampered(kind, record, keys, rng)
                for case in (record, tampered, record):
                    expected = _reference_verify(im, kind, case)
                    assert im.verify(case) == expected
                    # Ask twice so the second call exercises a hit.
                    assert im.verify(case) == expected
                assert im.verify(record) and not im.verify(tampered)

    def test_tampered_tag_after_a_cached_true(self):
        im, keys = _enrolled(seed=4)
        tx = make_signed_transaction(keys["p0"], {"amount": 1}, 0.5, nonce=0)
        assert im.verify(tx)
        assert im.verify(tx)  # now a held True
        tag = bytearray(tx.provider_signature)
        tag[0] ^= 1
        forged = _with_signature("tx", tx, bytes(tag))
        assert not verify_with_key(keys["p0"], forged.signed_message(), forged.provider_signature)
        assert not im.verify(forged)
        assert im.verify(tx)

    def test_hit_and_miss_counters(self):
        obs = MetricsRegistry()
        im = IdentityManager(seed=2, obs=obs)
        key = im.enroll("p0", Role.PROVIDER)
        tx = make_signed_transaction(key, "payload", 1.0, nonce=0)
        hits = obs.counter("crypto_sig_cache_hits", "")
        misses = obs.counter("crypto_sig_cache_misses", "")
        assert im.verify(tx)
        assert (misses.value, hits.value) == (1, 0)
        assert im.verify(tx)
        assert (misses.value, hits.value) == (1, 1)
        # One verdict held per miss.
        assert obs._metrics["crypto_sig_cache_entries"].value == misses.value

    def test_another_im_never_reads_this_verdict(self):
        rng = random.Random(5)
        for kind in RECORD_KINDS:
            # Two IMs enrol the same ids under different keys.
            (first, keys), (second, _keys) = _enrolled(seed=5), _enrolled(seed=6)
            record = _random_record(kind, keys, rng)
            assert first.verify(record)
            assert record.checked_by is first
            assert not second.verify(record)
            assert (second.sig_cache_misses, second.sig_cache_hits) == (1, 0)
            # The second IM's verdict is not the first's either.
            assert first.verify(record)
            assert (first.sig_cache_misses, first.sig_cache_hits) == (2, 0)

    def test_same_signature_on_changed_bytes_is_recomputed(self):
        # A new record around a verified record's signature object (a
        # flipped label, a re-timestamped tx, another block hash, ...).
        rng = random.Random(3)
        for kind, (_signer, signature_field, changed, _claim) in RECORD_KINDS.items():
            im, keys = _enrolled(seed=3)
            record = _random_record(kind, keys, rng)
            assert im.verify(record)
            other = dataclasses.replace(record, **changed(record))
            assert getattr(other, signature_field) is getattr(record, signature_field)
            assert other.signed_message() != record.signed_message()
            assert not _has_verdict(other)
            assert not im.verify(other)
            assert (im.sig_cache_misses, im.sig_cache_hits) == (2, 0)
            assert not im.verify(other)  # a held False
            assert im.verify(record)  # and the first verdict is untouched
            assert (im.sig_cache_misses, im.sig_cache_hits) == (2, 2)

    def test_copies_carry_no_verdict(self):
        rng = random.Random(7)
        for kind in RECORD_KINDS:
            im, keys = _enrolled(seed=3)
            record = _random_record(kind, keys, rng)
            wire = pickle.dumps(record)
            assert im.verify(record)
            assert (record.checked_by, record.verdict) == (im, True)
            shipped = (
                pickle.loads(pickle.dumps(record)),
                copy.copy(record),
                copy.deepcopy(record),
            )
            for copied in shipped:
                assert copied == record and copied is not record
                assert not _has_verdict(copied)
                misses = im.sig_cache_misses
                assert im.verify(copied)
                assert im.sig_cache_misses == misses + 1
            # The verdict is no field: a twin without one is equal, prints
            # the same and pickles to the same bytes as before the check.
            fresh = dataclasses.replace(record)
            assert not _has_verdict(fresh)
            assert (fresh, repr(fresh)) == (record, repr(record))
            assert pickle.dumps(record) == pickle.dumps(fresh) == wire

    def test_forged_signer_is_rejected_before_the_verdict_is_read(self):
        rng = random.Random(9)
        for kind, (signer_field, _signature_field, _changed, claim) in RECORD_KINDS.items():
            im, keys = _enrolled(seed=3)
            record = _random_record(kind, keys, rng)
            assert im.verify(record)  # holds a True
            assert getattr(record, signer_field) != "p_other"
            in_another_name = (
                # A tag made with another enrolled member's key over the
                # record's own bytes, and the honest tag on a claim in that
                # member's name: each fails the HMAC under the claimed key.
                _with_signature(
                    kind, record, sign(keys["p_other"], record.signed_message())
                ),
                dataclasses.replace(record, **claim(record, "p_other")),
            )
            for copy_ in in_another_name:
                assert not _has_verdict(copy_)
                assert not im.verify(copy_)
            # The honest signature on a claim in a name nobody enrolled,
            # carrying a planted True for this IM: refused unread.
            unknown = dataclasses.replace(record, **claim(record, "nobody"))
            object.__setattr__(unknown, "checked_by", im)
            object.__setattr__(unknown, "verdict", True)
            assert not im.verify(unknown)
            assert (im.sig_cache_misses, im.sig_cache_hits) == (3, 0)


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
    names = ("digest", "tx_id")
    values = {name: getattr(obj, name) for name in names if hasattr(obj, name)}
    if isinstance(obj, SignedRecord):
        values["signed_message"] = obj.signed_message()
    return values


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
        assert not hasattr(obj, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            obj.extra = 1
        for name in _derived_values(obj):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, b"forged")
        # A derived name is a slot, never a field: ``==`` ignores it.
        slots = {name for cls in type(obj).__mro__ for name in getattr(cls, "__slots__", ())}
        derived = slots - {f.name for f in dataclasses.fields(obj)}
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
