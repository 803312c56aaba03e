"""Cryptographic substrate: hashing, signatures, VRF, identity, Merkle trees.

Everything the protocol needs from "standard PKI methods" (Section 3.1)
is provided here in a simulation-friendly form; see DESIGN.md for the
substitution argument (HMAC signatures + keyed-hash VRF under a trusted
Identity Manager preserve the properties the protocol relies on).
"""
