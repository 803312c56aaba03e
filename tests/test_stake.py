"""Unit tests for the stake ledger and transfers."""

from __future__ import annotations

import pytest

from repro.consensus.stake import StakeLedger, StakeTransfer, transfer_message
from repro.crypto.hashing import hash_value
from repro.crypto.signatures import SigningKey, sign
from repro.exceptions import StakeError

KEY = SigningKey(owner="g0", secret=b"\x11" * 32)


def transfer(sender="g0", receiver="g1", amount=2, nonce=0):
    return StakeTransfer(
        sender=sender, receiver=receiver, amount=amount, nonce=nonce,
        signature=sign(KEY, transfer_message(sender, receiver, amount, nonce)),
    )


class TestStakeLedger:
    def test_from_balances(self):
        ledger = StakeLedger.from_balances({"g0": 3, "g1": 1})
        assert ledger.balance("g0") == 3
        assert ledger.total == 4

    def test_negative_initial_rejected(self):
        with pytest.raises(StakeError):
            StakeLedger.from_balances({"g0": -1})

    def test_unknown_balance_zero(self):
        assert StakeLedger.from_balances({"g0": 1}).balance("gX") == 0

    def test_apply_moves_stake(self):
        ledger = StakeLedger.from_balances({"g0": 3, "g1": 1})
        ledger.apply(transfer(amount=2))
        assert ledger.balance("g0") == 1
        assert ledger.balance("g1") == 3
        assert ledger.total == 4

    def test_apply_to_unseen_receiver(self):
        ledger = StakeLedger.from_balances({"g0": 3})
        ledger.apply(transfer(receiver="g9", amount=1))
        assert ledger.balance("g9") == 1

    def test_overdraft_rejected(self):
        ledger = StakeLedger.from_balances({"g0": 1})
        with pytest.raises(StakeError):
            ledger.apply(transfer(amount=2))

    def test_applied_returns_copy(self):
        ledger = StakeLedger.from_balances({"g0": 3, "g1": 0})
        derived = ledger.applied([transfer(amount=1)])
        assert ledger.balance("g0") == 3  # original untouched
        assert derived.balance("g0") == 2

    def test_snapshot_and_state_hash(self):
        a = StakeLedger.from_balances({"g0": 2, "g1": 1})
        b = StakeLedger.from_balances({"g1": 1, "g0": 2})
        assert a.snapshot() == b.snapshot()

    def test_state_hash_changes_on_transfer(self):
        ledger = StakeLedger.from_balances({"g0": 3, "g1": 1})
        before = ledger.snapshot()
        ledger.apply(transfer(amount=1))
        assert ledger.snapshot() != before


class TestStakeTransfer:
    def test_positive_amount_required(self):
        with pytest.raises(StakeError):
            transfer(amount=0)
        with pytest.raises(StakeError):
            transfer(amount=-3)

    def test_self_transfer_rejected(self):
        with pytest.raises(StakeError):
            transfer(receiver="g0")

    def test_canonical_bytes_depend_on_nonce(self):
        assert transfer(nonce=0).canonical_bytes() != transfer(nonce=1).canonical_bytes()
        # The digest is the hash of the signed bytes.
        assert transfer().canonical_bytes() == hash_value(
            ("stake-transfer", "g0", "g1", 2, 0)
        )
