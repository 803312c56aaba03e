"""numpy's ``default_rng`` and ``sum``, bit for bit, without numpy.

Every seeded draw in the engine comes from :func:`default_rng`, which
reproduces ``numpy.random.default_rng`` (numpy 2.x) draw for draw for
the methods the engine calls: ``SeedSequence`` entropy pooling of an
int seed or a ``[seed, tag]`` list, then PCG64 (XSL-RR 128/64) with
numpy's buffered 32-bit half.  A run therefore commits the same ledger
whether its generators are these or numpy's, and a process that only
drives the protocol (an engine, a shard worker, a custodian) never
imports numpy, which with its OpenBLAS pool was about a third of such a
process's peak memory (PERFORMANCE.md §8).

:func:`pairwise_sum` is ``float(np.sum(xs))`` for a sequence of floats:
numpy's pairwise summation (8 accumulators per leaf of up to 128
items), which is *not* left-to-right ``sum``.

``beta`` alone needs numpy's ziggurat tables: it lends the PCG64 state
to a lazily imported numpy generator for the one draw and takes it
back.  Only the ``insurance-fraud`` preset's workload calls it.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right

__all__ = ["Generator", "default_rng", "pairwise_sum"]

_M32 = 0xFFFFFFFF
_M64 = 0xFFFFFFFFFFFFFFFF
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_TO_DOUBLE = 1.0 / 9007199254740992.0  # 2**-53

# SeedSequence hashing constants (pool of four 32-bit words).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_L = 0xCA01F9DD
_MIX_R = 0x4973F715

#: ``sqrt(float64 eps)``: how far ``choice``'s probabilities may sum from 1.
_P_ATOL = math.sqrt(2.220446049250313e-16)
_POISSON_LAM_MAX = 9.223372006484771e18
_LOGGAM_A = (
    8.333333333333333e-02, -2.777777777777778e-03, 7.936507936507937e-04,
    -5.952380952380952e-04, 8.417508417508418e-04, -1.917526917526918e-03,
    6.410256410256410e-03, -2.955065359477124e-02, 1.796443723688307e-01,
    -1.39243221690590e+00,
)


def _entropy_words(seed) -> list[int]:
    """``SeedSequence``'s little-endian uint32 words of an int or int list."""
    items = seed if isinstance(seed, (list, tuple)) else (seed,)
    words: list[int] = []
    for item in items:
        n = operator.index(item)
        if n < 0:
            raise ValueError("expected non-negative integer")
        if n == 0:
            words += (0,)
        while n:
            words += (n & _M32,)
            n >>= 32
    return words


def _pcg_seed(words: list[int]) -> tuple[int, int]:
    """``PCG64(SeedSequence(words))``'s ``(state, inc)``."""
    # mix_entropy: hash each word into the pool, cross-mix the pool,
    # then fold any words past the pool in.
    n = len(words)
    hc = _INIT_A
    pool = [0, 0, 0, 0]
    for i in range(4):
        v = (words[i] if i < n else 0) ^ hc
        hc = hc * _MULT_A & _M32
        v = v * hc & _M32
        pool[i] = v ^ (v >> 16)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                v = pool[src] ^ hc
                hc = hc * _MULT_A & _M32
                v = v * hc & _M32
                v ^= v >> 16
                r = (_MIX_L * pool[dst] - _MIX_R * v) & _M32
                pool[dst] = r ^ (r >> 16)
    for src in range(4, n):
        for dst in range(4):
            v = words[src] ^ hc
            hc = hc * _MULT_A & _M32
            v = v * hc & _M32
            v ^= v >> 16
            r = (_MIX_L * pool[dst] - _MIX_R * v) & _M32
            pool[dst] = r ^ (r >> 16)
    # generate_state(4, uint64): eight uint32 words, read pairwise
    # little-endian into (seed_hi, seed_lo, inc_hi, inc_lo).
    hc = _INIT_B
    acc = lo = 0
    for i in range(8):
        v = pool[i & 3] ^ hc
        hc = hc * _MULT_B & _M32
        v = v * hc & _M32
        v ^= v >> 16
        if i & 1:
            acc = (acc << 64) | (v << 32) | lo
        else:
            lo = v
    initstate = acc >> 128
    initseq = acc & _M128
    # pcg_setseq_128_srandom_r: step from 0, add the seed, step again.
    inc = (initseq << 1 | 1) & _M128
    state = ((inc + initstate) * _PCG_MULT + inc) & _M128
    return state, inc


class Generator:
    """A PCG64 stream with numpy ``Generator``'s draws (see the module doc).

    Picklable mid-stream: the state is four ints, so a behaviour piped to
    a shard worker continues its stream unchanged.
    """

    __slots__ = ("_state", "_inc", "_has32", "_u32")

    def __init__(self, state: int, inc: int) -> None:
        self._state = state
        self._inc = inc
        self._has32 = False
        self._u32 = 0

    # -- the bit stream -------------------------------------------------

    def _next64(self) -> int:
        s = (self._state * _PCG_MULT + self._inc) & _M128
        self._state = s
        x = ((s >> 64) ^ s) & _M64
        r = s >> 122
        return ((x >> r) | (x << (64 - r))) & _M64

    def _next32(self) -> int:
        if self._has32:
            self._has32 = False
            return self._u32
        v = self._next64()
        self._has32 = True
        self._u32 = v >> 32
        return v & _M32

    def _bounded(self, rng: int) -> int:
        """A draw in ``[0, rng]`` (``random_bounded_uint64``, Lemire)."""
        if rng == 0:
            return 0
        if rng <= _M32:
            if rng == _M32:
                return self._next32()
            excl = rng + 1
            m = self._next32() * excl
            left = m & _M32
            if left < excl:
                threshold = (_M32 - rng) % excl
                while left < threshold:
                    m = self._next32() * excl
                    left = m & _M32
            return m >> 32
        if rng == _M64:
            return self._next64()
        excl = rng + 1
        m = self._next64() * excl
        left = m & _M64
        if left < excl:
            threshold = (_M64 - rng) % excl
            while left < threshold:
                m = self._next64() * excl
                left = m & _M64
        return m >> 64

    # -- numpy Generator methods ----------------------------------------

    def random(self, size: int | None = None):
        """A float in ``[0, 1)``: ``(next64 >> 11) * 2**-53``; ``size=n``
        gives a list of n draws in order."""
        if size is not None:
            return self.uniform(0.0, 1.0, size)
        s = (self._state * _PCG_MULT + self._inc) & _M128
        self._state = s
        x = ((s >> 64) ^ s) & _M64
        r = s >> 122
        return ((((x >> r) | (x << (64 - r))) & _M64) >> 11) * _TO_DOUBLE

    def integers(self, low, high=None, size: int | None = None):
        """An int in ``[low, high)`` (``[0, low)`` with one argument);
        ``size=n`` gives a list of n draws in order."""
        if high is None:
            low, high = 0, low
        low = int(low)
        high = int(high) - 1
        if low < -(1 << 63):
            raise ValueError("low is out of bounds for int64")
        if high > (1 << 63) - 1:
            raise ValueError("high is out of bounds for int64")
        if low > high:
            raise ValueError("high <= 0" if low == 0 else "low >= high")
        if size is None:
            return low + self._bounded(high - low)
        return [low + self._bounded(high - low) for _ in range(size)]

    def uniform(self, low: float = 0.0, high: float = 1.0, size: int | None = None):
        """``low + (high - low) * random()``; ``size=n`` gives a list of
        n such draws, the same as n scalar calls in order."""
        low = float(low)
        span = float(high) - low
        if not math.isfinite(span):
            raise OverflowError("high - low range exceeds valid bounds")
        if math.copysign(1.0, span) < 0.0:
            raise ValueError("high - low < 0")
        if size is None:
            return low + span * self.random()
        out = [0.0] * size
        s = self._state
        inc = self._inc
        for i in range(size):
            s = (s * _PCG_MULT + inc) & _M128
            x = ((s >> 64) ^ s) & _M64
            r = s >> 122
            out[i] = low + span * (
                ((((x >> r) | (x << (64 - r))) & _M64) >> 11) * _TO_DOUBLE
            )
        self._state = s
        return out

    def choice(self, a: int, p) -> int:
        """An index in ``range(a)`` drawn with probabilities ``p``."""
        n = operator.index(a)
        if n <= 0:
            raise ValueError("a must be a positive integer unless no samples are taken")
        if len(p) != n:
            raise ValueError("a and p must have same size")
        # One pass: Kahan sum (numpy's check), sign check, and cumsum.
        cdf = [0.0] * n
        kahan = comp = cum = 0.0
        negative = False
        i = 0
        for x in p:
            if i == 0:
                kahan = x
            else:
                y = x - comp
                t = kahan + y
                comp = (t - kahan) - y
                kahan = t
            if x < 0.0:
                negative = True
            cum += x
            cdf[i] = cum
            i += 1
        if kahan != kahan:
            raise ValueError("Probabilities contain NaN")
        if negative:
            raise ValueError("Probabilities are not non-negative")
        if abs(kahan - 1.0) > _P_ATOL:
            raise ValueError(
                "Probabilities do not sum to 1. See Notes section of docstring "
                "for more information."
            )
        last = cdf[-1]
        for i in range(n):
            cdf[i] /= last
        return bisect_right(cdf, self.random())

    def permutation(self, n: int) -> list[int]:
        """``range(n)`` shuffled (Fisher-Yates, masked rejection)."""
        out = list(range(operator.index(n)))
        for i in range(len(out) - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = self._next32() & mask
            while j > i:
                j = self._next32() & mask
            out[i], out[j] = out[j], out[i]
        return out

    def bytes(self, length: int) -> bytes:
        """``length`` random bytes: little-endian uint32 draws (numpy
        draws one word even for ``length == 0``)."""
        words = (length + 3) // 4 or 1
        acc = shift = done = 0
        if self._has32:
            self._has32 = False
            acc = self._u32
            shift = 32
            done = 1
        if done + 2 <= words:
            s = self._state
            inc = self._inc
            while done + 2 <= words:
                s = (s * _PCG_MULT + inc) & _M128
                x = ((s >> 64) ^ s) & _M64
                r = s >> 122
                acc |= (((x >> r) | (x << (64 - r))) & _M64) << shift
                shift += 64
                done += 2
            self._state = s
        if done < words:
            acc |= self._next32() << shift
        return acc.to_bytes(4 * words, "little")[:length]

    def poisson(self, lam: float = 1.0) -> int:
        """A Poisson(``lam``) draw: multiplication below 10, PTRS above."""
        lam = float(lam)
        if not lam >= 0.0:
            raise ValueError("lam < 0 or lam is NaN")
        if lam > _POISSON_LAM_MAX:
            raise ValueError("lam value too large")
        if lam == 0.0:
            return 0
        if lam < 10.0:
            enlam = math.exp(-lam)
            k = 0
            prod = 1.0
            while True:
                prod *= self.random()
                if prod > enlam:
                    k += 1
                else:
                    return k
        slam = math.sqrt(lam)
        loglam = math.log(lam)
        b = 0.931 + 2.53 * slam
        a = -0.059 + 0.02483 * b
        invalpha = 1.1239 + 1.1328 / (b - 3.4)
        vr = 0.9277 - 3.6224 / (b - 2)
        while True:
            u = self.random() - 0.5
            v = self.random()
            us = 0.5 - abs(u)
            k = math.floor((2 * a / us + b) * u + lam + 0.43)
            if us >= 0.07 and v <= vr:
                return k
            if k < 0 or (us < 0.013 and v > us):
                continue
            log_v = math.log(v) if v > 0.0 else -math.inf
            if log_v + math.log(invalpha) - math.log(a / (us * us) + b) <= (
                -lam + k * loglam - _loggam(k + 1)
            ):
                return k

    def beta(self, a: float, b: float) -> float:
        """A Beta(``a``, ``b``) draw, made by numpy on this stream."""
        from numpy.random import PCG64
        from numpy.random import Generator as NumpyGenerator

        bitgen = PCG64()
        bitgen.state = {
            "bit_generator": "PCG64",
            "state": {"state": self._state, "inc": self._inc},
            "has_uint32": int(self._has32),
            "uinteger": self._u32,
        }
        value = float(NumpyGenerator(bitgen).beta(a, b))
        state = bitgen.state
        self._state = state["state"]["state"]
        self._has32 = bool(state["has_uint32"])
        self._u32 = state["uinteger"]
        return value


def _loggam(x: float) -> float:
    """numpy's ``random_loggam``: ``log(Gamma(x))`` for the PTRS test."""
    if x == 1.0 or x == 2.0:
        return 0.0
    n = int(7 - x) if x < 7.0 else 0
    x0 = x + n
    x2 = (1.0 / x0) * (1.0 / x0)
    gl0 = _LOGGAM_A[9]
    for k in range(8, -1, -1):
        gl0 *= x2
        gl0 += _LOGGAM_A[k]
    gl = gl0 / x0 + 0.5 * 1.8378770664093453e00 + (x0 - 0.5) * math.log(x0) - x0
    if x < 7.0:
        for _ in range(n):
            gl -= math.log(x0 - 1.0)
            x0 -= 1.0
    return gl


def default_rng(seed) -> Generator:
    """``numpy.random.default_rng(seed)`` for an int or a list of ints."""
    return Generator(*_pcg_seed(_entropy_words(seed)))


def pairwise_sum(xs) -> float:
    """``float(np.sum(xs))`` for a sequence of floats (pairwise order)."""
    n = len(xs)
    if n < 8:
        total = 0.0
        for x in xs:
            total += x
        return total
    return _pairwise(xs, 0, n)


def _pairwise(xs, start: int, n: int) -> float:
    if n < 8:
        total = 0.0
        for i in range(start, start + n):
            total += xs[i]
        return total
    if n <= 128:
        r0, r1, r2, r3, r4, r5, r6, r7 = xs[start:start + 8]
        end = start + n - n % 8
        i = start + 8
        while i < end:
            r0 += xs[i]
            r1 += xs[i + 1]
            r2 += xs[i + 2]
            r3 += xs[i + 3]
            r4 += xs[i + 4]
            r5 += xs[i + 5]
            r6 += xs[i + 6]
            r7 += xs[i + 7]
            i += 8
        total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for i in range(end, start + n):
            total += xs[i]
        return total
    half = n // 2
    half -= half % 8
    return _pairwise(xs, start, half) + _pairwise(xs, start + half, n - half)
