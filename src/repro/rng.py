"""Seeded draws built on the standard library's ``random()``.

Every seeded draw in the engine comes from :func:`default_rng`.  A
:class:`Generator` is a :class:`random.Random` whose every method is
made from ``random()`` alone: that is the one draw CPython promises to
keep bit-stable for a given seed across versions (``randrange``,
``choices``, ``shuffle`` and ``betavariate`` make no such promise), so
the same seed commits the same ledger on every supported interpreter.

An int seed seeds the stream directly.  A ``[seed, tag]`` pair seeds it
with the string ``"seed:tag"``, which ``random`` hashes with sha512
(its documented string seeding), so a tagged stream is independent of
the plain ``seed`` stream and of every other tag.

An agent keeps no stream: its draws about a transaction are
:func:`keyed_draws`, uniforms cut from one ``sha256`` (the second
primitive here, stable by construction and cheaper than string-seeding
a ``random.Random`` per transaction) of the run seed, the agent's id and
the transaction body's digest (not its id, which hashes the host's
timestamp), so they do not depend on the order the agent meets them in.
"""

from __future__ import annotations

import math
import operator
import random
from bisect import bisect_right
from hashlib import sha256
from itertools import accumulate
from struct import unpack

__all__ = ["Draws", "Generator", "KeyedDraws", "default_rng", "keyed_draws"]

#: ``poisson`` walks the CDF from ``exp(-lam)``, which must stay a normal float.
_POISSON_LAM_MAX = 700.0
#: A 53-bit integer times this is a float in ``[0, 1)``.
_UNIT = 2.0 ** -53


class Generator(random.Random):
    """A seeded stream with the draws the engine calls (see the module doc).

    Picklable mid-stream (``random.Random`` pickles its state), so a
    workload or fault plan piped to a shard worker continues its stream
    unchanged.
    """

    def integers(self, low: int, high: int | None = None) -> int:
        """An int in ``[low, high)`` (``[0, low)`` with one argument).

        One ``random()`` scaled to the span: a span above ``2**53`` is
        reached at ``2**53`` evenly spaced values, enough for seeding a
        child stream."""
        if high is None:
            low, high = 0, low
        low = operator.index(low)
        span = operator.index(high) - low
        if span <= 0:
            raise ValueError(f"empty range [{low}, {high})")
        return low + int(self.random() * span)

    def uniform(self, low: float = 0.0, high: float = 1.0, size: int | None = None):
        """``low + (high - low) * random()``; ``size=n`` gives a list of
        n such draws, the same as n scalar calls in order."""
        span = high - low
        if size is None:
            return low + span * self.random()
        draw = self.random
        return [low + span * draw() for _ in range(size)]

    def choice(self, a: int, p) -> int:
        """An index in ``range(a)``, drawn with probability proportional to ``p``."""
        if len(p) != a or a <= 0:
            raise ValueError(f"need {a} > 0 probabilities, got {len(p)}")
        if min(p) < 0.0:
            raise ValueError("probabilities must be non-negative")
        cdf = list(accumulate(p))
        total = cdf[-1]
        if not total > 0.0:
            raise ValueError("probabilities must have a positive sum")
        return bisect_right(cdf, self.random() * total)

    def permutation(self, n: int) -> list[int]:
        """``range(n)`` shuffled (Fisher-Yates)."""
        out = list(range(n))
        for i in range(n - 1, 0, -1):
            j = int(self.random() * (i + 1))
            out[i], out[j] = out[j], out[i]
        return out

    def bytes(self, length: int) -> bytes:
        """``length`` random bytes, one draw each."""
        draw = self.random
        return bytes(int(draw() * 256) for _ in range(length))

    def poisson(self, lam: float = 1.0) -> int:
        """A Poisson(``lam``) draw: one uniform, inverted through the CDF."""
        if not 0.0 <= lam <= _POISSON_LAM_MAX:
            raise ValueError(f"lam must be in [0, {_POISSON_LAM_MAX}], got {lam}")
        u = self.random()
        k = 0
        p = cdf = math.exp(-lam)
        while cdf <= u and p > 0.0:
            k += 1
            p *= lam / k
            cdf += p
        return k

    def beta(self, a: int, b: int) -> float:
        """A Beta(``a``, ``b``) draw for whole ``a, b >= 1``: the ``a``-th
        smallest of ``a + b - 1`` uniforms."""
        if a != int(a) or b != int(b) or a < 1 or b < 1:
            raise ValueError(f"beta needs whole a, b >= 1, got {a}, {b}")
        draw = self.random
        return sorted(draw() for _ in range(int(a) + int(b) - 1))[int(a) - 1]


def default_rng(seed) -> Generator:
    """The stream of a non-negative int ``seed`` or a ``[seed, tag]`` pair."""
    parts = seed if isinstance(seed, (list, tuple)) else (seed,)
    parts = [operator.index(x) for x in parts]
    if len(parts) not in (1, 2) or min(parts) < 0:
        raise ValueError(f"seed must be a non-negative int or [seed, tag], got {seed!r}")
    return Generator(parts[0] if len(parts) == 1 else f"{parts[0]}:{parts[1]}")


class KeyedDraws(list):
    """A digest's four big-endian 64-bit words, drawn last first: each
    ``random()`` is the top 53 bits of one (as ``Random.random()`` spaces
    its floats), and a fifth raises ``IndexError``."""

    __slots__ = ()

    def random(self) -> float:
        return (self.pop() >> 11) * _UNIT

    choice = Generator.choice


Draws = Generator | KeyedDraws  # what a behaviour or a screening draws from

def keyed_draws(seed: int, agent: str, key: bytes) -> KeyedDraws:
    """``agent``'s draws about ``key`` (a transaction body's digest, or the
    8-byte round number of a forger's draw) in the run of ``seed``."""
    return KeyedDraws(unpack(">4Q", sha256(f"{seed}:{agent}:".encode() + key).digest()))
