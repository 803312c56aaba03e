"""VRF-based Proof-of-Stake leader election (Section 3.4.3).

Per round, every governor evaluates the VRF once *per stake unit* and
broadcasts all (hash, proof) pairs.  After verifying every received
proof, each governor independently selects the owner of the globally
least hash value as the round leader — identical inputs, identical
winner, no extra communication.

Because each of the ``Y = sum_j y_j`` stake units draws an i.i.d.
uniform hash, the probability that governor ``g_j`` owns the minimum is
exactly ``y_j / Y`` — leadership proportional to stake, which experiment
E10 verifies with a chi-squared test.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.identity import IdentityManager
from repro.crypto.vrf import vrf_evaluate, vrf_verify
from repro.crypto.signatures import SigningKey
from repro.consensus.messages import VRFAnnouncement
from repro.consensus.stake import StakeLedger
from repro.exceptions import LeaderElectionError, VRFError

__all__ = ["announce_stakes", "elect_leader", "LeaderElection"]


def announce_stakes(
    key: SigningKey, round_number: int, governor_index: int, stake_units: int
) -> VRFAnnouncement:
    """Produce the VRF announcement for one governor's stake.

    The paper indexes stake units ``1 <= u <= y_j``; we keep that
    convention in the VRF input.
    """
    outputs = tuple(
        vrf_evaluate(key, round_number, governor_index, unit)
        for unit in range(1, stake_units + 1)
    )
    return VRFAnnouncement(round_number=round_number, governor=key.owner, outputs=outputs)


def _verify_announcement(
    im: IdentityManager,
    announcement: VRFAnnouncement,
    round_number: int,
    governor_index: int,
    expected_units: int,
) -> None:
    """Check an announcement's proofs and shape against the stake ledger."""
    if announcement.round_number != round_number:
        raise VRFError(
            f"{announcement.governor!r} announced for round "
            f"{announcement.round_number}, expected {round_number}"
        )
    if len(announcement.outputs) != expected_units:
        raise VRFError(
            f"{announcement.governor!r} announced {len(announcement.outputs)} "
            f"VRF outputs but holds {expected_units} stake units"
        )
    key = im.record(announcement.governor).key
    for unit, output in enumerate(announcement.outputs, start=1):
        if not vrf_verify(key, output):
            raise VRFError(
                f"VRF proof of {announcement.governor!r} unit {unit} failed verification"
            )
        expected = vrf_evaluate(key, round_number, governor_index, unit)
        if expected.value != output.value:
            raise VRFError(
                f"{announcement.governor!r} unit {unit} hash does not match "
                "the canonical VRF input (r, j, u)"
            )


def elect_leader(
    im: IdentityManager,
    stake: StakeLedger,
    governor_order: list[str],
    round_number: int,
    announcements: list[VRFAnnouncement],
) -> str:
    """Deterministically select the round leader from verified announcements.

    Args:
        im: Identity Manager used to verify VRF proofs.
        stake: Current stake balances (shape check).
        governor_order: Canonical governor ordering fixing index ``j``.
        round_number: The round being elected.
        announcements: One announcement per staked governor.

    Returns:
        The leader's governor id.

    Raises:
        LeaderElectionError: no governor in ``governor_order`` holds
            stake, or a staked governor did not announce.
        VRFError: a proof failed verification.
    """
    by_gov = {a.governor: a for a in announcements}
    best: tuple[int, str] | None = None
    for j, gov in enumerate(governor_order):
        units = stake.balance(gov)
        if units == 0:
            continue
        announcement = by_gov.get(gov)
        if announcement is None:
            raise LeaderElectionError(f"staked governor {gov!r} did not announce")
        _verify_announcement(im, announcement, round_number, j, units)
        for output in announcement.outputs:
            candidate = (output.as_int(), gov)
            if best is None or candidate < best:
                best = candidate
    if best is None:
        raise LeaderElectionError("no governor in the election order holds stake")
    return best[1]


@dataclass
class LeaderElection:
    """Convenience driver: run a whole election locally (no network).

    Used by unit tests, the statistical experiments (E10), and any
    context where the full message exchange is irrelevant.
    """

    im: IdentityManager
    governor_order: list[str]

    def run(self, stake: StakeLedger, round_number: int) -> str:
        """Announce for every staked governor and elect.

        When no governor in the order holds stake (all of it sits with
        governors an engine expelled from the order), leadership falls
        back to round-robin over the order, so the chain stays live.
        """
        announcements = []
        for j, gov in enumerate(self.governor_order):
            units = stake.balance(gov)
            if units > 0:
                key = self.im.record(gov).key
                announcements.append(announce_stakes(key, round_number, j, units))
        if not announcements:
            order = self.governor_order
            return order[(round_number - 1) % len(order)]
        return elect_leader(
            self.im, stake, self.governor_order, round_number, announcements
        )
