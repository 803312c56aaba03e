"""``repro.rng``: seeded streams that replay, and tags that separate them.

The frozen table pins each method's first draws at seed 1.  Every draw
is made from ``random.Random.random()``, which CPython keeps bit-stable
for a seed, so the table is the cross-version contract.  An agent's
keyed draws are cut from ``sha256``, stable by construction; their first
four are pinned too.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rng import Generator, default_rng, keyed_draws

seeds = st.one_of(
    st.integers(min_value=0, max_value=2**64),
    st.lists(st.integers(min_value=0, max_value=2**32 - 1), min_size=2, max_size=2),
)

calls = st.one_of(
    st.tuples(st.just("random")),
    st.tuples(st.just("integers"), st.sampled_from([1, 2, 10, 2**32 + 1, 2**63])),
    st.tuples(st.just("integers"), st.integers(-50, 50), st.integers(51, 2**33)),
    st.tuples(st.just("uniform"), st.just(0.05), st.just(0.1)),
    st.tuples(st.just("uniform_size"), st.integers(0, 6)),
    st.tuples(
        st.just("choice"),
        st.lists(st.floats(min_value=1e-6, max_value=1e3), min_size=1, max_size=12),
    ),
    st.tuples(st.just("permutation"), st.integers(0, 40)),
    st.tuples(st.just("bytes"), st.integers(0, 40)),
    st.tuples(st.just("poisson"), st.sampled_from([0.0, 0.5, 3.3, 25.5, 400.0])),
    st.tuples(st.just("beta"), st.integers(1, 9), st.integers(1, 9)),
)


def _apply(gen, call):
    name, *args = call
    if name == "uniform_size":
        return gen.uniform(0.05, 0.1, size=args[0])
    if name == "choice":
        (p,) = args
        return gen.choice(len(p), p=p)
    return getattr(gen, name)(*args)


def _tail(gen) -> list:
    """The stream after a call sequence."""
    return [gen.integers(7), gen.integers(2**40), gen.random(), gen.bytes(6)]


class TestDeterminism:
    @settings(max_examples=200, deadline=None)
    @given(seed=seeds, sequence=st.lists(calls, max_size=40), cut=st.integers(0, 40))
    def test_interleaved_calls_replay(self, seed, sequence, cut):
        """The same seed replays any call sequence, across a pickle too."""
        first, second = default_rng(seed), default_rng(seed)
        for call in sequence[:cut]:
            assert _apply(first, call) == _apply(second, call), call
        second = pickle.loads(pickle.dumps(second))
        for call in sequence[cut:]:
            assert _apply(first, call) == _apply(second, call), call
        assert _tail(first) == _tail(second)

    @pytest.mark.parametrize("seed", [0, 1, 2**63 - 1, 2**64 + 5, [7, 0x41525231]])
    def test_same_seed_same_stream(self, seed):
        assert _tail(default_rng(seed)) == _tail(default_rng(seed))

    def test_tagged_streams_are_independent_of_the_plain_one(self):
        plain = [default_rng(3).random() for _ in range(4)]
        tagged = {
            tag: [default_rng([3, tag]).random() for _ in range(4)]
            for tag in (0, 1, 3, 0x41525231)
        }
        assert all(draws != plain for draws in tagged.values())
        assert len({tuple(draws) for draws in tagged.values()}) == len(tagged)
        # A pair is a string seed, not a sum or a concatenation of ints.
        assert default_rng([1, 23]).random() != default_rng([12, 3]).random()


class TestPickle:
    def test_stream_continues_after_a_round_trip(self):
        gen = default_rng([3, 4])
        gen.random()
        gen.integers(100)
        clone = pickle.loads(pickle.dumps(gen))
        assert isinstance(clone, Generator)
        assert [_tail(clone) for _ in range(3)] == [_tail(gen) for _ in range(3)]


class TestArguments:
    @pytest.mark.parametrize(
        "call",
        [
            lambda g: g.integers(0),
            lambda g: g.integers(5, 5),
            lambda g: g.integers(7, 3),
            lambda g: default_rng(-1),
            lambda g: g.choice(3, p=[0.5, 0.5]),
            lambda g: g.choice(2, p=[float("nan"), 1.0]),
            lambda g: g.choice(2, p=[-0.5, 1.5]),
            lambda g: g.choice(2, p=[0.0, 0.0]),
            lambda g: g.choice(0, p=[]),
            lambda g: g.poisson(-1.0),
            lambda g: g.poisson(float("nan")),
            lambda g: g.poisson(1e19),
            lambda g: default_rng([3, -4]),
            lambda g: g.beta(2.5, 1.0),
        ],
    )
    def test_bad_arguments_raise(self, call):
        with pytest.raises(ValueError):
            call(default_rng(1))


#: First draws at seed 1: the contract itself.
FROZEN = [
    (lambda g: [g.random() for _ in range(3)],
     [0.13436424411240122, 0.8474337369372327, 0.763774618976614]),
    (lambda g: [g.integers(10) for _ in range(3)] + [g.integers(2**40) for _ in range(2)],
     [1, 8, 7, 280451359685, 544736639065]),
    (lambda g: [g.integers(2**63), g.integers(-5, 5)], [1239291411899450368, 3]),
    (lambda g: g.uniform(0.05, 0.1, size=3),
     [0.05671821220562007, 0.09237168684686164, 0.0881887309488307]),
    (lambda g: [g.choice(4, p=[0.1, 0.2, 0.3, 0.4]) for _ in range(5)], [1, 3, 3, 1, 2]),
    (lambda g: g.permutation(6), [1, 2, 5, 3, 4, 0]),
    (lambda g: g.bytes(8).hex(), "22d8c3417e73a6c9"),
    (lambda g: [g.poisson(3.0) for _ in range(3)] + [g.poisson(40.0) for _ in range(3)],
     [1, 5, 4, 36, 40, 39]),
    (lambda g: [g.beta(6.0, 2.0) for _ in range(2)], [0.763774618976614, 0.7887233511355132]),
]


@pytest.mark.parametrize("index", range(len(FROZEN)))
def test_frozen_first_draws(index):
    draw, expected = FROZEN[index]
    assert draw(default_rng(1)) == expected


def test_frozen_tagged_seed():
    assert default_rng([1, 0x41525231]).random() == 0.8561782067903092


def test_every_draw_is_made_from_random_alone(monkeypatch):
    """No method reaches ``getrandbits``, whose output CPython does not promise to keep."""

    def refuse(self, k):
        raise AssertionError("getrandbits called")

    monkeypatch.setattr(Generator, "getrandbits", refuse)
    with pytest.raises(AssertionError):
        default_rng(1).randrange(10)  # the patch does reach library draws
    for draw, expected in FROZEN:
        assert draw(default_rng(1)) == expected


class TestKeyedDraws:
    KEY = bytes(32)

    def test_the_four_draws_are_pinned(self):
        draws = keyed_draws(1, "c0", self.KEY)
        assert [draws.random() for _ in range(4)] == [
            0.9403844775562147, 0.8486767392436244, 0.19307605778177417, 0.9157347757793927,
        ]
        with pytest.raises(IndexError):
            draws.random()

    def test_seed_agent_and_key_each_separate_the_draws(self):
        first = keyed_draws(1, "c0", self.KEY).random()
        assert keyed_draws(1, "c0", self.KEY).random() == first
        for other in (
            keyed_draws(2, "c0", self.KEY),
            keyed_draws(1, "c1", self.KEY),
            keyed_draws(1, "c0", b"\x01" + self.KEY[1:]),
        ):
            assert other.random() != first

    def test_choice_reads_one_draw_as_the_generator_does(self):
        weights = [0.2, 0.5, 0.3]
        draws = keyed_draws(3, "g0", self.KEY)
        u = keyed_draws(3, "g0", self.KEY).random()

        class Fixed(Generator):
            def random(self):
                return u

        assert draws.choice(3, weights) == Fixed(0).choice(3, weights)
