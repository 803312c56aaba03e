"""``repro.rng`` against numpy: the same streams, draw for draw.

numpy is the oracle here only; the engine itself never imports it.
The frozen table pins each method's first draws, so the contract holds
even if a later numpy changes its own streams.
"""

from __future__ import annotations

import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rng import Generator, default_rng, pairwise_sum

seeds = st.one_of(
    st.integers(min_value=0, max_value=2**64),
    st.lists(st.integers(min_value=0, max_value=2**32 - 1), min_size=2, max_size=2),
)


def _probabilities(weights: list[float]) -> tuple[float, ...]:
    total = pairwise_sum(weights)
    return tuple(w / total for w in weights)


calls = st.one_of(
    st.tuples(st.just("random")),
    st.tuples(st.just("random_size"), st.integers(0, 6)),
    st.tuples(
        st.just("integers"),
        st.sampled_from([1, 2, 3, 10, 1000, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**40, 2**63]),
    ),
    st.tuples(
        st.just("integers"),
        st.integers(min_value=-50, max_value=50),
        st.integers(min_value=1, max_value=2**33),
    ).map(lambda c: (c[0], c[1], c[1] + c[2])),
    st.tuples(st.just("uniform"), st.sampled_from([0.0, 0.05, -3.0]), st.integers(1, 5)),
    st.tuples(st.just("uniform_size"), st.integers(0, 6)),
    st.tuples(
        st.just("choice"),
        st.lists(st.floats(min_value=1e-6, max_value=1e3), min_size=1, max_size=12).map(
            _probabilities
        ),
    ),
    st.tuples(st.just("permutation"), st.integers(0, 40)),
    st.tuples(st.just("bytes"), st.integers(0, 40)),
    st.tuples(st.just("poisson"), st.sampled_from([0.0, 0.5, 3.3, 9.99, 10.0, 25.5, 400.0])),
)


def _apply(gen, call):
    """One call on either generator, as plain Python values."""
    name, *args = call
    if name == "random":
        return float(gen.random())
    if name == "integers":
        return int(gen.integers(*args))
    if name == "uniform":
        low, span = args
        return float(gen.uniform(low, low + span))
    if name == "random_size":
        return [float(x) for x in gen.random(args[0])]
    if name == "uniform_size":
        return [float(x) for x in gen.uniform(0.05, 0.1, size=args[0])]
    if name == "choice":
        (p,) = args
        return int(gen.choice(len(p), p=p))
    if name == "permutation":
        return [int(i) for i in gen.permutation(args[0])]
    if name == "bytes":
        return gen.bytes(args[0])
    return int(gen.poisson(args[0]))


def _tail(gen) -> list:
    """The stream after a call sequence: 64-bit, buffered 32-bit and float."""
    return [int(gen.integers(7)), int(gen.integers(2**40)), float(gen.random()), gen.bytes(6)]


class TestNumpyParity:
    @settings(max_examples=300, deadline=None)
    @given(seed=seeds, sequence=st.lists(calls, max_size=40))
    def test_interleaved_calls_match_numpy(self, seed, sequence):
        ours = default_rng(seed)
        theirs = np.random.default_rng(seed)
        for call in sequence:
            assert _apply(ours, call) == _apply(theirs, call), call
        assert _tail(ours) == _tail(theirs)

    @pytest.mark.parametrize("seed", [0, 1, 2**63 - 1, 2**64 + 5, [7, 0x41525231]])
    def test_seeding_matches_numpy_state(self, seed):
        state = np.random.default_rng(seed).bit_generator.state["state"]
        ours = default_rng(seed)
        assert (ours._state, ours._inc) == (state["state"], state["inc"])

    def test_beta_draws_on_the_same_stream(self):
        ours, theirs = default_rng(9), np.random.default_rng(9)
        for gen in (ours, theirs):
            gen.integers(5)  # leave a buffered 32-bit half
        assert ours.beta(2.0, 5.0) == float(theirs.beta(2.0, 5.0))
        assert _tail(ours) == _tail(theirs)

    @pytest.mark.parametrize(
        "call",
        [
            lambda g: g.integers(0),
            lambda g: g.integers(5, 5),
            lambda g: g.integers(2**63 + 1),
            lambda g: g.uniform(1.0, 0.0),
            lambda g: g.choice(3, p=[0.5, 0.5]),
            lambda g: g.choice(2, p=[float("nan"), 1.0]),
            lambda g: g.choice(2, p=[-0.5, 1.5]),
            lambda g: g.choice(2, p=[0.5, 0.6]),
            lambda g: g.choice(0, p=[]),
            lambda g: g.poisson(-1.0),
            lambda g: g.poisson(float("nan")),
            lambda g: g.poisson(1e19),
        ],
    )
    def test_argument_checks_match_numpy(self, call):
        with pytest.raises(ValueError) as ours:
            call(default_rng(1))
        with pytest.raises(ValueError) as theirs:
            call(np.random.default_rng(1))
        assert str(ours.value) == str(theirs.value)


class TestPickle:
    def test_stream_continues_after_a_round_trip(self):
        gen = default_rng([3, 4])
        gen.random()
        gen.integers(100)  # a buffered 32-bit half rides along
        clone = pickle.loads(pickle.dumps(gen))
        assert isinstance(clone, Generator)
        assert [_tail(clone) for _ in range(3)] == [_tail(gen) for _ in range(3)]


class TestPairwiseSum:
    def test_matches_numpy_sum_for_every_length_to_300(self):
        rnd = random.Random(7)
        for n in range(301):
            xs = [rnd.uniform(-1.0, 1.0) * 10.0 ** rnd.randrange(-6, 6) for _ in range(n)]
            assert pairwise_sum(xs) == float(np.sum(np.array(xs))), n
            assert pairwise_sum(tuple(xs)) == float(np.sum(xs)), n


#: First draws at seed 1 as numpy 2.x makes them — the contract itself.
FROZEN = [
    (lambda g: [g.random() for _ in range(3)],
     [0.5118216247002567, 0.9504636963259353, 0.14415961271963373]),
    (lambda g: [g.integers(10) for _ in range(3)] + [g.integers(2**40) for _ in range(2)],
     [4, 5, 7, 158505170440, 1043051097810]),
    (lambda g: g.integers(2**63), 4720721261117928063),
    (lambda g: list(g.uniform(0.05, 0.1, size=3)),
     [0.07559108123501285, 0.09752318481629677, 0.05720798063598169]),
    (lambda g: [g.choice(4, p=[0.1, 0.2, 0.3, 0.4]) for _ in range(5)], [2, 3, 1, 3, 2]),
    (lambda g: list(g.permutation(6)), [4, 0, 2, 1, 5, 3]),
    (lambda g: g.bytes(8).hex(), "ffe42279f3bd0683"),
    (lambda g: [g.poisson(3.0) for _ in range(3)] + [g.poisson(40.0) for _ in range(3)],
     [4, 4, 4, 39, 38, 35]),
]


@pytest.mark.parametrize("index", range(len(FROZEN)))
def test_frozen_first_draws(index):
    draw, expected = FROZEN[index]
    assert draw(default_rng(1)) == expected


def test_frozen_tagged_seed():
    assert default_rng([1, 0x41525231]).random() == 0.15011261480587612
