"""Ledger substrate: transactions, blocks, chains, stores, validity, properties."""
