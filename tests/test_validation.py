"""Unit tests for validity oracles."""

from __future__ import annotations

import pytest

from repro.crypto.signatures import SigningKey
from repro.exceptions import LedgerError
from repro.ledger.properties import BROADCAST, UPLOADED
from repro.ledger.transaction import make_signed_transaction
from repro.ledger.validation import CountingOracle, GroundTruthOracle

KEY = SigningKey(owner="p0", secret=b"\x0f" * 32)


def tx(payload="x", nonce=0):
    return make_signed_transaction(KEY, payload, 1.0, nonce=nonce)


class TestGroundTruthOracle:
    def test_assign_and_validate(self):
        oracle = GroundTruthOracle()
        t = tx()
        oracle.assign(t, True)
        assert oracle.validate(t)

    def test_unknown_tx_invalid(self):
        # Unknown = forged: never generated through the workload.
        assert not GroundTruthOracle().validate(tx())

    def test_reassign_same_value_ok(self):
        oracle = GroundTruthOracle()
        t = tx()
        oracle.assign(t, False)
        oracle.assign(t, False)
        assert not oracle.validate(t)

    def test_conflicting_assignment_rejected(self):
        oracle = GroundTruthOracle()
        t = tx()
        oracle.assign(t, True)
        with pytest.raises(LedgerError):
            oracle.assign(t, False)

    def test_shares_a_transcript_table(self):
        # Over a run's flags, the truth bits sit beside the transcript's.
        flags = {}
        oracle = GroundTruthOracle(flags)
        t = tx()
        flags[t.tx_id] = BROADCAST
        oracle.assign(t, True)
        flags[t.tx_id] |= UPLOADED
        assert flags[t.tx_id] & (BROADCAST | UPLOADED) == BROADCAST | UPLOADED
        assert oracle.validate(t)
        with pytest.raises(LedgerError):
            oracle.assign(t, False)


class TestCountingOracle:
    def test_counts_calls(self):
        inner = GroundTruthOracle()
        t = tx()
        inner.assign(t, True)
        counting = CountingOracle(inner=inner)
        assert counting.calls == 0
        counting.validate(t)
        counting.validate(t)
        assert counting.calls == 2

    def test_delegates_result(self):
        inner = GroundTruthOracle()
        t_good, t_bad = tx("a"), tx("b", nonce=1)
        inner.assign(t_good, True)
        inner.assign(t_bad, False)
        counting = CountingOracle(inner=inner)
        assert counting.validate(t_good)
        assert not counting.validate(t_bad)
