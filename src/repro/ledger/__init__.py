"""Ledger substrate: transactions, blocks, chains, stores, validity, properties."""

from repro.ledger.block import GENESIS_PREV_HASH, Block
from repro.ledger.chain import Ledger, check_agreement
from repro.ledger.properties import PropertyReport, RunTranscript, check_all_properties
from repro.ledger.store import BlockStore
from repro.ledger.sync import sync_replica, verify_sync
from repro.ledger.transaction import (
    CheckStatus,
    Label,
    LabeledTransaction,
    SignedTransaction,
    TransactionBody,
    TxRecord,
    make_labeled_transaction,
    make_signed_transaction,
)
from repro.ledger.validation import (
    CountingOracle,
    GroundTruthOracle,
    ValidityOracle,
)

__all__ = [
    "Block",
    "BlockStore",
    "CheckStatus",
    "CountingOracle",
    "GENESIS_PREV_HASH",
    "GroundTruthOracle",
    "Label",
    "LabeledTransaction",
    "Ledger",
    "PropertyReport",
    "RunTranscript",
    "SignedTransaction",
    "TransactionBody",
    "TxRecord",
    "ValidityOracle",
    "check_agreement",
    "check_all_properties",
    "make_labeled_transaction",
    "make_signed_transaction",
    "sync_replica",
    "verify_sync",
]
