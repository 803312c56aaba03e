"""Unit tests for VRF-PoS leader election (plus the E10-style stats check)."""

from __future__ import annotations

import collections

import pytest

from repro.consensus.pos import LeaderElection, announce_stakes, elect_leader
from repro.consensus.stake import StakeLedger
from repro.crypto.identity import IdentityManager, Role
from repro.crypto.vrf import VRFOutput
from repro.exceptions import LeaderElectionError, VRFError


@pytest.fixture
def gov_im():
    im = IdentityManager(seed=2)
    for j in range(4):
        im.enroll(f"g{j}", Role.GOVERNOR)
    return im


GOVS = ["g0", "g1", "g2", "g3"]


class TestAnnouncements:
    def test_one_output_per_stake_unit(self, gov_im):
        key = gov_im.record("g0").key
        ann = announce_stakes(key, round_number=1, governor_index=0, stake_units=5)
        assert len(ann.outputs) == 5
        assert ann.governor == "g0"

    def test_outputs_distinct_across_units(self, gov_im):
        key = gov_im.record("g0").key
        ann = announce_stakes(key, 1, 0, 4)
        values = {o.value for o in ann.outputs}
        assert len(values) == 4


class TestElection:
    def _announce_all(self, gov_im, stake, round_number):
        return [
            announce_stakes(gov_im.record(g).key, round_number, j, stake.balance(g))
            for j, g in enumerate(GOVS)
            if stake.balance(g) > 0
        ]

    def test_elects_some_staked_governor(self, gov_im):
        stake = StakeLedger.from_balances({g: 1 for g in GOVS})
        anns = self._announce_all(gov_im, stake, 1)
        leader = elect_leader(gov_im, stake, GOVS, 1, anns)
        assert leader in GOVS

    def test_deterministic(self, gov_im):
        stake = StakeLedger.from_balances({g: 2 for g in GOVS})
        anns = self._announce_all(gov_im, stake, 3)
        l1 = elect_leader(gov_im, stake, GOVS, 3, anns)
        l2 = elect_leader(gov_im, stake, GOVS, 3, anns)
        assert l1 == l2

    def test_changes_across_rounds(self, gov_im):
        stake = StakeLedger.from_balances({g: 1 for g in GOVS})
        leaders = set()
        for r in range(30):
            anns = self._announce_all(gov_im, stake, r)
            leaders.add(elect_leader(gov_im, stake, GOVS, r, anns))
        assert len(leaders) > 1  # rotation happens

    def test_zero_stake_governor_never_wins(self, gov_im):
        stake = StakeLedger.from_balances({"g0": 0, "g1": 1, "g2": 1, "g3": 1})
        for r in range(40):
            anns = self._announce_all(gov_im, stake, r)
            assert elect_leader(gov_im, stake, GOVS, r, anns) != "g0"

    def test_no_stake_at_all_rejected(self, gov_im):
        stake = StakeLedger.from_balances({g: 0 for g in GOVS})
        with pytest.raises(LeaderElectionError):
            elect_leader(gov_im, stake, GOVS, 1, [])

    def test_stake_only_outside_the_order_rejected(self, gov_im):
        stake = StakeLedger.from_balances({"g0": 1, "g1": 0})
        with pytest.raises(LeaderElectionError):
            elect_leader(gov_im, stake, ["g1"], 1, [])

    def test_unstaked_order_rotates(self, gov_im):
        # All stake sits outside the order (an expelled governor's):
        # the election falls back to round-robin and the chain stays live.
        stake = StakeLedger.from_balances({"g0": 4, "g1": 0, "g2": 0})
        election = LeaderElection(gov_im, ["g1", "g2"])
        assert [election.run(stake, r) for r in (1, 2, 3)] == ["g1", "g2", "g1"]

    def test_missing_announcement_rejected(self, gov_im):
        stake = StakeLedger.from_balances({g: 1 for g in GOVS})
        anns = self._announce_all(gov_im, stake, 1)[:-1]
        with pytest.raises(LeaderElectionError):
            elect_leader(gov_im, stake, GOVS, 1, anns)

    def test_wrong_unit_count_rejected(self, gov_im):
        stake = StakeLedger.from_balances({g: 2 for g in GOVS})
        # g0 announces only 1 output while holding 2 units.
        anns = [
            announce_stakes(gov_im.record("g0").key, 1, 0, 1)
        ] + [
            announce_stakes(gov_im.record(g).key, 1, j, 2)
            for j, g in enumerate(GOVS)
            if g != "g0"
        ]
        # Fix indices for the others (they start at j=0 in the comprehension).
        anns = [announce_stakes(gov_im.record("g0").key, 1, 0, 1)] + [
            announce_stakes(gov_im.record(g).key, 1, j, 2)
            for j, g in enumerate(GOVS)
            if j > 0
        ]
        with pytest.raises(VRFError):
            elect_leader(gov_im, stake, GOVS, 1, anns)

    def test_grinding_rejected(self, gov_im):
        # g0 substitutes a more favourable hash from a different round.
        stake = StakeLedger.from_balances({g: 1 for g in GOVS})
        honest = [
            announce_stakes(gov_im.record(g).key, 5, j, 1)
            for j, g in enumerate(GOVS)
        ]
        other_round = announce_stakes(gov_im.record("g0").key, 6, 0, 1)
        tampered = type(honest[0])(
            round_number=5, governor="g0", outputs=other_round.outputs
        )
        with pytest.raises(VRFError):
            elect_leader(gov_im, stake, GOVS, 5, [tampered] + honest[1:])

    def test_forged_value_rejected(self, gov_im):
        stake = StakeLedger.from_balances({g: 1 for g in GOVS})
        honest = [
            announce_stakes(gov_im.record(g).key, 2, j, 1) for j, g in enumerate(GOVS)
        ]
        out = honest[0].outputs[0]
        forged_out = VRFOutput(
            owner=out.owner, alpha=out.alpha, value=bytes(32), proof=out.proof
        )
        forged = type(honest[0])(round_number=2, governor="g0", outputs=(forged_out,))
        with pytest.raises(VRFError):
            elect_leader(gov_im, stake, GOVS, 2, [forged] + honest[1:])


class TestProportionality:
    def test_leadership_roughly_proportional_to_stake(self, gov_im):
        """g0 holds 4x the stake of the others -> ~4x the leaderships."""
        stake = StakeLedger.from_balances({"g0": 8, "g1": 2, "g2": 2, "g3": 2})
        election = LeaderElection(im=gov_im, governor_order=GOVS)
        counts = collections.Counter(
            election.run(stake, round_number=r) for r in range(600)
        )
        share_g0 = counts["g0"] / 600
        assert 0.47 <= share_g0 <= 0.67  # expectation 8/14 = 0.571
        for g in ("g1", "g2", "g3"):
            assert counts[g] > 0
