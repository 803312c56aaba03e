"""Cryptographic substrate: hashing, signatures, VRF, identity, Merkle trees.

Everything the protocol needs from "standard PKI methods" (Section 3.1)
is provided here in a simulation-friendly form; see DESIGN.md for the
substitution argument (HMAC signatures + keyed-hash VRF under a trusted
Identity Manager preserve the properties the protocol relies on).
"""

from repro.crypto.hashing import (
    DIGEST_SIZE,
    canonical_encode,
    hash_many,
    hash_value,
    sha256,
)
from repro.crypto.identity import IdentityManager, NodeRecord, Role
from repro.crypto.merkle import MerkleProof, MerkleTree, merkle_root
from repro.crypto.signatures import Signature, SigningKey, sign, verify_with_key
from repro.crypto.vrf import (
    VRFOutput,
    vrf_evaluate,
    vrf_output_to_unit_interval,
    vrf_verify,
)

__all__ = [
    "DIGEST_SIZE",
    "IdentityManager",
    "MerkleProof",
    "MerkleTree",
    "NodeRecord",
    "Role",
    "Signature",
    "SigningKey",
    "VRFOutput",
    "canonical_encode",
    "hash_many",
    "hash_value",
    "merkle_root",
    "sha256",
    "sign",
    "verify_with_key",
    "vrf_evaluate",
    "vrf_output_to_unit_interval",
    "vrf_verify",
]
