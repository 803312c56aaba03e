"""Simulated Verifiable Random Function (VRF).

Section 3.4.3: each governor computes, for every unit of stake he owns,

    <hash_{j,u}, pi_{j,u}>  <-  VRF_{g_j}(r, j, u)

and broadcasts both; the stake unit with the least hash across all
governors elects its owner as the round leader.

A production system would use the Micali-Rabin-Vadhan construction [27].
In the permissioned setting with a trusted Identity Manager the two
properties the protocol needs are:

* **pseudorandomness** — the hash is unpredictable without the key and
  uniformly distributed, so leadership is proportional to stake;
* **verifiability** — every governor can check that a claimed hash was
  honestly derived from (round, governor, stake-unit).

We realise both with keyed SHA-256: ``output = H(secret || input)`` and
``proof = HMAC(secret, input)`` verified through the key registry.  This
is the standard "random-oracle VRF" substitution and preserves the
distributional behaviour the leader election depends on.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass

from repro.crypto.signatures import SigningKey
from repro.exceptions import VRFError

__all__ = ["VRFOutput", "vrf_evaluate", "vrf_verify"]

#: Number of bytes of VRF output interpreted as the election hash value.
OUTPUT_BYTES = 32


@dataclass(frozen=True)
class VRFOutput:
    """A VRF evaluation: the pseudorandom ``value`` plus its ``proof``."""

    owner: str
    alpha: bytes
    value: bytes
    proof: bytes

    def as_int(self) -> int:
        """The election hash as a big-endian integer (lower wins)."""
        return int.from_bytes(self.value, "big")


def _alpha_bytes(round_number: int, governor_index: int, stake_unit: int) -> bytes:
    """Canonical VRF input for (r, j, u), per the paper's call signature."""
    if round_number < 0 or governor_index < 0 or stake_unit < 0:
        raise VRFError("VRF inputs (round, governor, stake unit) must be non-negative")
    return b"|".join(
        [
            b"vrf-input",
            str(round_number).encode(),
            str(governor_index).encode(),
            str(stake_unit).encode(),
        ]
    )


def vrf_evaluate(
    key: SigningKey, round_number: int, governor_index: int, stake_unit: int
) -> VRFOutput:
    """Evaluate ``VRF_{g_j}(r, j, u)`` with the governor's credential.

    Returns the (value, proof) pair the governor broadcasts.  The value
    is deterministic in (key, r, j, u): re-evaluating yields the same
    output, as a VRF requires.
    """
    alpha = _alpha_bytes(round_number, governor_index, stake_unit)
    value = hashlib.sha256(b"vrf-val|" + key.secret + b"|" + alpha).digest()
    proof = hmac.new(key.secret, b"vrf-prf|" + alpha, hashlib.sha256).digest()
    return VRFOutput(owner=key.owner, alpha=alpha, value=value, proof=proof)


def vrf_verify(key: SigningKey, output: VRFOutput) -> bool:
    """Check a broadcast VRF output against the owner's registered key.

    In the simulation the verifier role is played with access to the
    Identity Manager's key registry (the trusted-CA model); a deployment
    would verify against the public key instead.  Returns False on any
    mismatch — wrong owner, wrong proof, or a value not derived from the
    claimed input.
    """
    if output.owner != key.owner:
        return False
    expected_proof = hmac.new(key.secret, b"vrf-prf|" + output.alpha, hashlib.sha256)
    if not hmac.compare_digest(expected_proof.digest(), output.proof):
        return False
    expected_value = hashlib.sha256(
        b"vrf-val|" + key.secret + b"|" + output.alpha
    ).digest()
    return hmac.compare_digest(expected_value, output.value)
