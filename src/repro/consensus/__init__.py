"""Consensus substrate: stake, PoS/VRF leader election and stake-transform
consensus."""
