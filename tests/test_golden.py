"""Golden-value regression tests.

Every stochastic component is seeded, so whole runs are bit-for-bit
reproducible — which means we can pin exact outputs and catch *any*
unintended behavioural change (a reordered RNG draw, a changed hash
input, an off-by-one in an update rule) that the invariant-style tests
might tolerate.

If a change legitimately alters the protocol's draw sequence (e.g. a new
feature consuming randomness), these constants must be re-derived and
the change justified in the commit that updates them.
"""

from __future__ import annotations

import pytest

from repro.agents.behaviors import (
    AlwaysInvertBehavior,
    ConcealBehavior,
    HonestBehavior,
    MisreportBehavior,
    standard_adversary_mix,
)
from repro.baselines.base import PolicySimulation, ReputationPolicy
from repro.core.game import PROVIDER, ReputationGame
from repro.core.params import ProtocolParams
from repro.core.protocol import ProtocolEngine
from repro.crypto.hashing import canonical_encode, hash_value
from repro.crypto.signatures import SigningKey, sign
from repro.crypto.vrf import vrf_evaluate
from repro.network.topology import Topology
from repro.workloads.generator import BernoulliWorkload

# -- protocol-run goldens ----------------------------------------------------

GOLDEN_BLOCK_HASHES = [
    "6ce6251286550e284ef7c7e0acc5395f1a2c98eb2f1919b1ca7b6265e761adc9",
    "84a7d63adcd092b170c61a627071d795ddf384fdc421e586f82bee6620b8798a",
    "c8d11a86981ff5d070f2718f90c893f5e92dfe68a9b2b40644fac38d0ed4b6b1",
]


def test_golden_protocol_block_hashes():
    """Three rounds of a fixed configuration produce pinned block hashes."""
    topo = Topology.regular(l=8, n=4, m=3, r=2)
    engine = ProtocolEngine(
        topo,
        ProtocolParams(f=0.5),
        behaviors={"c0": MisreportBehavior(0.4)},
        seed=1234,
    )
    workload = BernoulliWorkload(topo.providers, p_valid=0.8, seed=5678)
    hashes = [engine.run_round(workload.take(8)).block.hash().hex() for _ in range(3)]
    assert hashes == GOLDEN_BLOCK_HASHES


# -- reputation-game goldens ---------------------------------------------------

def test_golden_game_losses_and_weights():
    """A fixed game run reproduces its exact losses and final weights."""
    game = ReputationGame(
        [
            HonestBehavior(),
            MisreportBehavior(0.5),
            ConcealBehavior(0.5),
            AlwaysInvertBehavior(),
        ],
        horizon=200,
        seed=99,
    )
    result = game.run()
    assert result.expected_loss == pytest.approx(3.6706630157714897, rel=1e-12)
    assert result.realized_loss == 2.0
    assert result.final_weights["c0"] == 1.0
    assert result.final_weights["c1"] == pytest.approx(8.138440002230567e-35, rel=1e-9)
    assert result.final_weights["c2"] == pytest.approx(6.533186235000687e-23, rel=1e-9)
    assert result.final_weights["c3"] == pytest.approx(1.844914491040736e-64, rel=1e-9)


# -- E8 policy goldens ---------------------------------------------------------

#: The r = 8 collector mixes the policy goldens replay.
MIXES = {
    "hostile": lambda: [HonestBehavior()] * 2 + [AlwaysInvertBehavior()] * 6,
    "zoo": standard_adversary_mix,
}

GOLDEN_POLICY_RUNS = {
    # mix: (first-stream stats, second-stream stats, final weights); stats are
    # (validations, unchecked, mistakes, realized_loss) over 400 transactions.
    "hostile": (
        (356, 44, 5, 10.0),
        (330, 70, 0, 0.0),
        {
            "c0": 1.0,
            "c1": 1.0,
            "c2": 2.0613846335056296e-08,
            "c3": 2.0613846335056296e-08,
            "c4": 2.0613846335056296e-08,
            "c6": 2.0613846335056296e-08,
            "c7": 2.0613846335056296e-08,
            "c8": 7.473201014311571e-07,
        },
    ),
    "zoo": (
        (357, 43, 4, 8.0),
        (331, 69, 0, 0.0),
        {
            "c0": 1.0,
            "c1": 1.0,
            "c2": 0.000636634585420544,
            "c3": 0.009697737297875247,
            "c4": 2.4081730145213042e-08,
            "c6": 4.7242351395636434e-07,
            "c7": 8.464149782874061e-05,
            "c8": 5.016286912893609e-05,
        },
    ),
}


@pytest.mark.parametrize("mix", sorted(GOLDEN_POLICY_RUNS))
def test_golden_policy_stats_and_weights_across_churn(mix):
    """E8's reputation policy reproduces its exact stats and final weights
    over two streams with a median admission and a retirement in between."""
    policy = ReputationPolicy(
        params=ProtocolParams(f=0.7), collector_ids=[f"c{i}" for i in range(8)]
    )

    def stats_of(seed):
        stats = PolicySimulation(MIXES[mix](), horizon=400, seed=seed).run(
            policy, policy_seed=seed + 1
        )
        assert stats.transactions == 400
        return (
            stats.validations, stats.unchecked, stats.mistakes, stats.realized_loss
        )

    first = stats_of(21)
    book = policy.book
    book.readmit_collector("c8", (PROVIDER,))
    book.retire_collector("c5")
    policy.collector_ids = tuple(book.collectors())
    second = stats_of(23)
    weights = book.weights_for(PROVIDER, book.collectors())
    assert (first, second, dict(weights)) == GOLDEN_POLICY_RUNS[mix]


# -- crypto goldens --------------------------------------------------------------

def test_golden_canonical_hash():
    """The canonical encoding is part of the wire/storage format: pin it."""
    digest = hash_value(("tx", {"a": 1, "b": [True, None, "x"]}, 3.5)).hex()
    assert digest == hash_value(("tx", {"b": [True, None, "x"], "a": 1}, 3.5)).hex()
    # This constant *is* the storage format; a change breaks old chains.
    assert digest == (
        "772cfff325c6e5e3e6a8a4fbee8b2994f631f306d26c2e6295bf19c447968357"
    )


def test_golden_signature_and_vrf_determinism():
    """Fixed key + fixed input -> fixed tag and VRF value, stable across
    runs and platforms (pure HMAC-SHA256)."""
    key = SigningKey(owner="gold", secret=b"\x42" * 32)
    tag1 = sign(key, canonical_encode(("msg", 7)))
    tag2 = sign(key, canonical_encode(("msg", 7)))
    assert tag1 == tag2
    out1 = vrf_evaluate(key, 3, 1, 2)
    out2 = vrf_evaluate(key, 3, 1, 2)
    assert out1.value == out2.value
    assert out1.as_int() == int.from_bytes(out1.value, "big")
