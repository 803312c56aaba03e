"""Unit tests for the Identity Manager."""

from __future__ import annotations

import dataclasses

import pytest

from repro.agents.governor import Governor
from repro.core.params import ProtocolParams
from repro.crypto.identity import IdentityManager, Role
from repro.crypto.signatures import SigningKey, sign
from repro.exceptions import UnknownIdentityError
from repro.ledger.transaction import (
    Label,
    SignedTransaction,
    TransactionBody,
    make_labeled_transaction,
    make_signed_transaction,
    tx_message,
)
from repro.ledger.validation import CountingOracle, GroundTruthOracle
from repro.rng import default_rng


def ingest(im: IdentityManager, upload, governor: str = "g0") -> tuple[bool, int]:
    """``Governor.ingest_upload``'s verdict and the forgeries it booked.

    The governor runs the paper's full collector ``verify``: the
    collector's signature, the embedded provider signature and the IM's
    collector-provider link.
    """
    gov = Governor(
        governor_id=governor,
        key=im.record(governor).key,
        params=ProtocolParams(f=0.5),
        im=im,
        oracle=CountingOracle(inner=GroundTruthOracle()),
        rng=default_rng(0),
    )
    gov.register_streaming({upload.collector: (upload.tx.provider,)})
    return gov.ingest_upload(upload), gov.metrics.forgeries_caught


class TestEnrolment:
    def test_enroll_returns_key_for_owner(self):
        im = IdentityManager(seed=0)
        key = im.enroll("p0", Role.PROVIDER)
        assert key.owner == "p0"

    def test_duplicate_enrolment_rejected(self):
        im = IdentityManager(seed=0)
        im.enroll("p0", Role.PROVIDER)
        with pytest.raises(UnknownIdentityError):
            im.enroll("p0", Role.COLLECTOR)

    def test_distinct_secrets_per_node(self):
        im = IdentityManager(seed=0)
        k1 = im.enroll("a", Role.PROVIDER)
        k2 = im.enroll("b", Role.PROVIDER)
        assert k1.secret != k2.secret

    def test_deterministic_in_seed(self):
        k1 = IdentityManager(seed=5).enroll("a", Role.PROVIDER)
        k2 = IdentityManager(seed=5).enroll("a", Role.PROVIDER)
        assert k1.secret == k2.secret

    def test_role_and_record(self):
        im = IdentityManager(seed=0)
        im.enroll("g0", Role.GOVERNOR)
        assert im.record("g0").role is Role.GOVERNOR
        assert im.record("g0").node_id == "g0"

    def test_unknown_record_raises(self):
        with pytest.raises(UnknownIdentityError):
            IdentityManager(seed=0).record("ghost")

    def test_members_filter_by_role(self, im):
        collectors = {n for n in im._records if im.record(n).role is Role.COLLECTOR}
        assert collectors == {"c0", "c1", "c2", "c3"}

    def test_is_enrolled(self, im):
        assert im.is_enrolled("p0")
        assert not im.is_enrolled("nobody")


class TestLinks:
    def test_register_and_query(self, im):
        assert im.is_linked("c0", "p0")
        assert im.is_linked("c0", "p1")

    def test_unlinked_pair(self, im):
        im2 = IdentityManager(seed=9)
        im2.enroll("cX", Role.COLLECTOR)
        im2.enroll("pX", Role.PROVIDER)
        assert not im2.is_linked("cX", "pX")

    def test_link_requires_enrolment(self):
        im = IdentityManager(seed=0)
        im.enroll("c0", Role.COLLECTOR)
        with pytest.raises(UnknownIdentityError):
            im.register_link("c0", "ghost-provider")


def _signed_as(im: IdentityManager, claimed: str, signer: str) -> SignedTransaction:
    """A tx that names ``claimed`` as its provider, signed with ``signer``'s key."""
    body = TransactionBody(provider=claimed, payload="msg", nonce=0)
    signature = sign(im.record(signer).key, tx_message(body.digest, 1.0))
    return SignedTransaction(body=body, timestamp=1.0, provider_signature=signature)


class TestVerification:
    def test_sign_and_verify(self, im):
        assert im.verify(_signed_as(im, "p0", "p0"))

    def test_reject_unknown_sender(self, im):
        key = SigningKey(owner="stranger", secret=b"\x07" * 32)
        assert not im.verify(make_signed_transaction(key, "msg", 1.0, nonce=0))

    def test_reject_cross_node_signature(self, im):
        assert not im.verify(_signed_as(im, "p1", "p0"))

    def test_reject_tampered_message(self, im):
        tx = _signed_as(im, "p0", "p0")
        assert not im.verify(dataclasses.replace(tx, timestamp=2.0))

    def test_collector_upload_verification_happy_path(self, im):
        tx = make_signed_transaction(im.record("p0").key, "x", 1.0, nonce=0)
        upload = make_labeled_transaction(im.record("c0").key, tx, Label.VALID)
        assert ingest(im, upload) == (True, 0)

    def test_collector_upload_rejects_unlinked_provider(self):
        im2 = IdentityManager(seed=3)
        for node, role in (("c9", Role.COLLECTOR), ("p9", Role.PROVIDER),
                           ("g9", Role.GOVERNOR)):
            im2.enroll(node, role)
        tx = make_signed_transaction(im2.record("p9").key, "x", 1.0, nonce=0)
        upload = make_labeled_transaction(im2.record("c9").key, tx, Label.VALID)
        # No register_link call: both signatures verify, the link check fails.
        assert ingest(im2, upload, governor="g9") == (False, 1)

    def test_collector_upload_rejects_forged_provider_sig(self, im):
        collector = im.record("c0").key
        body = TransactionBody(provider="p0", payload="x", nonce=0)
        fake = sign(collector, tx_message(body.digest, 1.0))  # c0 pretends to be p0
        forged = SignedTransaction(body=body, timestamp=1.0, provider_signature=fake)
        upload = make_labeled_transaction(collector, forged, Label.VALID)
        assert ingest(im, upload) == (False, 1)
