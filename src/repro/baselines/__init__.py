"""Baseline screening policies and the comparison harness (E8)."""
