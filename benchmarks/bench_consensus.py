"""E7 + E10 — consensus complexity and leader-election proportionality.

E7 (Section 4.1): ordinary-block consensus costs O(b_limit * m)
messages; a stake-transform block costs O(m^2).  We count messages as m
grows, fit growth laws, and set them beside the closed-form per-block
costs of PBFT and Tendermint (Theta(m^2) *every* block) and Raft.

E10 (Section 3.4.3): VRF/PoS leadership is proportional to stake —
checked with a chi-squared test over 600 rounds.
"""

from __future__ import annotations

from _helpers import emit
from repro.analysis.complexity import fit_linear, fit_power_law, fit_quadratic
from repro.analysis.reporting import format_table
from repro.analysis.stats import chi_squared_uniformity
from repro.consensus.pos import LeaderElection
from repro.consensus.stake import StakeLedger
from repro.core.params import ProtocolParams
from repro.core.protocol import ProtocolEngine
from repro.crypto.identity import IdentityManager, Role
from repro.network.topology import Topology
from repro.workloads.generator import BernoulliWorkload

M_GRID = [4, 8, 16, 32]


def _ordinary_block_units(m: int, batch: int = 16) -> int:
    """Transaction-message units to disseminate one ordinary block.

    The paper's O(b_limit * m) counts the leader shipping a b-transaction
    TXList to the governors: ``len(block) * (m - 1)`` payload units.
    """
    topo = Topology.regular(l=8, n=4, m=m, r=2)
    engine = ProtocolEngine(
        topo, ProtocolParams(f=0.5), seed=1
    )
    workload = BernoulliWorkload(topo.providers, p_valid=0.8, seed=2)
    result = engine.run_round(workload.take(batch))
    return len(result.block) * (m - 1)


def _stake_block_messages(m: int) -> int:
    """Governor messages for one stake-transform block at m governors.

    The paper's O(m^2) arises because every governor party to a transfer
    rebroadcasts it to all m governors, with Theta(m) transfers per
    round (each governor transacting) — so the bench submits one
    transfer per governor.
    """
    from repro.consensus.stake import make_transfer
    from repro.consensus.stake_consensus import StakeConsensusRound

    im = IdentityManager(seed=2)
    govs = [f"g{j}" for j in range(m)]
    for g in govs:
        im.enroll(g, Role.GOVERNOR)
    ledger = StakeLedger.from_balances({g: 4 for g in govs})
    transfers = [
        make_transfer(im.record(g).key, govs[(i + 1) % m], 1, nonce=i)
        for i, g in enumerate(govs)
    ]
    consensus = StakeConsensusRound(im=im, governors=govs)
    consensus.run(govs[0], ledger, transfers)
    return consensus.messages_exchanged


def _vrf_messages(m: int) -> int:
    """VRF announcement traffic per election: every staked governor to
    every other governor (small constant-size messages)."""
    return m * (m - 1)


def _bft_messages(m: int) -> int:
    """One PBFT or Tendermint instance: the proposer's pre-prepare to
    m - 1 peers, then two all-to-all phases of m(m - 1) each."""
    return (m - 1) * (2 * m + 1)


def _raft_entry_messages(m: int) -> int:
    """One committed Raft entry in steady state (crash model): the
    leader's AppendEntries to m - 1 followers and their acks."""
    return 2 * (m - 1)


def _complexity_table() -> str:
    rows = []
    ordinary, stake, pbft, tendermint = [], [], [], []
    for m in M_GRID:
        o = _ordinary_block_units(m)
        s = _stake_block_messages(m)
        p = t = _bft_messages(m)
        ra = _raft_entry_messages(m)
        ordinary.append(o)
        stake.append(s)
        pbft.append(p)
        tendermint.append(t)
        rows.append((m, o, s, _vrf_messages(m), p, t, ra))
    table = format_table(
        [
            "m (governors)",
            "ordinary block (tx units)",
            "stake-transform msgs",
            "VRF msgs",
            "PBFT msgs",
            "Tendermint msgs",
            "Raft msgs (crash-only)",
        ],
        rows,
    )
    fit_o = fit_power_law(M_GRID, ordinary)
    fit_s = fit_power_law(M_GRID, stake)
    fit_p = fit_power_law(M_GRID, pbft)
    lin = fit_linear(M_GRID, ordinary)
    quad = fit_quadratic(M_GRID, stake)
    table += (
        f"\n\nordinary-block exponent: {fit_o.coefficients[1]:.2f} "
        f"(paper: O(b_limit*m) -> ~1; linear R^2 = {lin.r_squared:.4f})"
        f"\nstake-transform exponent: {fit_s.coefficients[1]:.2f} "
        f"(paper: O(m^2) -> ~2; quadratic R^2 = {quad.r_squared:.4f})"
        f"\nPBFT exponent: {fit_p.coefficients[1]:.2f} (textbook: 2)"
        f"\nTendermint exponent: "
        f"{fit_power_law(M_GRID, tendermint).coefficients[1]:.2f} (textbook: 2)"
    )
    return table


def test_e7_message_complexity(benchmark):
    """E7: message counts vs m with power-law fits."""
    table = benchmark.pedantic(_complexity_table, rounds=1, iterations=1)
    emit(
        "E7_complexity",
        "E7 (Section 4.1): consensus message complexity vs governor count",
        table,
    )


def _election_proportionality() -> str:
    im = IdentityManager(seed=5)
    govs = [f"g{j}" for j in range(4)]
    for g in govs:
        im.enroll(g, Role.GOVERNOR)
    stakes = {"g0": 8, "g1": 4, "g2": 2, "g3": 2}
    ledger = StakeLedger.from_balances(stakes)
    election = LeaderElection(im=im, governor_order=govs)
    rounds = 800
    counts = {g: 0 for g in govs}
    for r in range(rounds):
        counts[election.run(ledger, r)] += 1
    total_stake = sum(stakes.values())
    props = [stakes[g] / total_stake for g in govs]
    result = chi_squared_uniformity([counts[g] for g in govs], props)
    rows = [
        (g, stakes[g], f"{stakes[g] / total_stake:.3f}", counts[g],
         f"{counts[g] / rounds:.3f}")
        for g in govs
    ]
    table = format_table(
        ["governor", "stake", "expected share", "leaderships", "observed share"], rows
    )
    table += (
        f"\n\nchi-squared = {result.statistic:.2f} (dof {result.dof}), "
        f"p = {result.p_value:.3f} -> "
        + ("consistent with stake-proportional election" if result.consistent() else "INCONSISTENT")
    )
    return table


def test_e10_leader_proportionality(benchmark):
    """E10: PoS leadership proportional to stake (chi-squared)."""
    table = benchmark.pedantic(_election_proportionality, rounds=1, iterations=1)
    emit(
        "E10_pos",
        "E10 (Section 3.4.3): VRF/PoS leadership vs stake share, 800 rounds",
        table,
    )


def test_e10_election_round(benchmark):
    """Timing target: one VRF election round at m = 8, 16 stake units."""
    im = IdentityManager(seed=8)
    govs = [f"g{j}" for j in range(8)]
    for g in govs:
        im.enroll(g, Role.GOVERNOR)
    ledger = StakeLedger.from_balances({g: 2 for g in govs})
    election = LeaderElection(im=im, governor_order=govs)
    counter = iter(range(10**9))

    def run():
        return election.run(ledger, next(counter))

    benchmark(run)
