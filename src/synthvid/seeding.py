"""Seed derivation helpers.

All randomness in this package flows through explicit integer seeds.  So
that independent pipeline stages (and independent draws inside a stage)
get uncorrelated streams without sharing generator state, seeds are
derived with splitmix64, a 64-bit mixing bijection with strong avalanche
behaviour.  Derived seeds are random-access: stream i of a base seed does
not depend on whether streams 0..i-1 were ever drawn.

A seed becomes a random stream as numpy's ``PCG64(seed)`` would make it.
:func:`pcg64_starts` seeds many streams in one pass: numpy's SeedSequence
hash runs on arrays of all the seeds, then PCG64's 128-bit seeding runs in
Python ints.  A :class:`Stream` started there draws exactly what
``np.random.Generator(np.random.PCG64(seed))`` draws, for the three draws
it has, at a fraction of the cost of building numpy's generator per seed.
"""

from __future__ import annotations

import functools

import numpy as np

MASK64 = (1 << 64) - 1

_GAMMA = 0x9E3779B97F4A7C15  # splitmix64 stream increment (golden ratio)
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def mix64(state: int) -> int:
    """splitmix64 finalizer: bijective avalanche mix of a 64-bit value."""
    z = state & MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def derive_seed(base_seed: int, index: int) -> int:
    """Seed for stream ``index`` of ``base_seed``.

    Equivalent to jumping a splitmix64 generator seeded at ``base_seed``
    forward by ``index + 1`` steps, so batches built from derived seeds are
    order-independent and safe to generate in parallel.
    """
    if index < 0:
        raise ValueError("index must be nonnegative")
    return mix64((base_seed + (index + 1) * _GAMMA) & MASK64)


@functools.cache
def fnv1a64(text: str) -> int:
    """FNV-1a hash of a label, used to salt named seed streams; the labels are
    a fixed set, so each is hashed once."""
    h = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & MASK64
    return h


def stream_seed(base_seed: int, label: str) -> int:
    """Seed for the named substream of ``base_seed``."""
    return mix64((base_seed ^ fnv1a64(label)) & MASK64)


def stream_seeds(base_seeds, labels) -> np.ndarray:
    """``stream_seed(base, label)`` for every base seed (rows) and label
    (columns), as a uint64 array: :func:`mix64` wraps its products the same
    way on uint64 arrays as on masked Python ints."""
    salts = np.array([fnv1a64(label) for label in labels], np.uint64)
    return mix64(np.array(base_seeds, np.uint64)[:, None] ^ salts)


# ---------------------------------------------------------------------------
# PCG64 streams, seeded in bulk

MASK32 = (1 << 32) - 1
MASK128 = (1 << 128) - 1

# numpy's SeedSequence: hashmix constants, mix multipliers, pool of 4 words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL = 4

# PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_constants(init: int, mult: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (xor, multiplier) columns of ``n`` successive SeedSequence hashmix
    calls: the running constant does not depend on the data, so it is fixed."""
    xors = [init]
    for _ in range(n):
        xors.append(xors[-1] * mult & MASK32)
    return (np.array(xors[:-1], np.uint32)[:, None], np.array(xors[1:], np.uint32)[:, None])


# mix_entropy's 4 + 12 calls, and generate_state's 8 (four 64-bit words)
_ENTROPY_HASH = _hash_constants(_INIT_A, _MULT_A, _POOL + _POOL * (_POOL - 1))
_STATE_HASH = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL)


def _hashmix(values: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    mixed = (values ^ xor) * mult
    return mixed ^ (mixed >> 16)


def pcg64_starts(seeds) -> list[tuple[int, int]]:
    """numpy's ``PCG64(seed)`` starting ``(state, inc)`` for each 64-bit seed,
    in the order of ``seeds`` (flattened, if it is an array).

    SeedSequence(seed) hashes the seed's 32-bit words into a pool of four
    and draws four 64-bit words from it; here both run on ``(4, n)`` and
    ``(8, n)`` arrays of all the seeds at once.  PCG64 then seeds its
    128-bit LCG from those words: increment ``2 * seq + 1``, one step from
    zero, add the state word, one more step.
    """
    seeds = np.asarray(seeds, dtype=np.uint64).ravel()
    pool = np.zeros((_POOL, len(seeds)), np.uint32)
    pool[0], pool[1] = seeds & MASK32, seeds >> 32
    xor, mult = _ENTROPY_HASH
    pool = _hashmix(pool, xor[:_POOL], mult[:_POOL])
    # every pool word mixes into every other: word ``src``'s three updates,
    # one per other word, read only word ``src``, so they run as one
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        k = _POOL + 3 * src
        mixed = pool[dst] * _MIX_L - _hashmix(pool[src], xor[k:k + 3], mult[k:k + 3]) * _MIX_R
        pool[dst] = mixed ^ (mixed >> 16)
    words = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], *_STATE_HASH).astype(np.uint64)
    state_hi, state_lo, seq_hi, seq_lo = (words[0::2] | words[1::2] << np.uint64(32)).tolist()
    starts = []
    for a, b, c, d in zip(state_hi, state_lo, seq_hi, seq_lo):
        inc = ((c << 64 | d) << 1 | 1) & MASK128
        starts.append((((inc + (a << 64 | b)) * _PCG_MULT + inc) & MASK128, inc))
    return starts


class Stream:
    """A PCG64 stream from ``(state, inc)`` with numpy ``Generator``'s exact draws.

    ``random``, ``uniform`` and ``integers`` return what the same calls on
    ``np.random.Generator(np.random.PCG64(seed))`` return, in any order,
    given :func:`pcg64_starts`'s start for ``seed``.  A 32-bit draw uses
    one half of a 64-bit output and keeps the other for the next one, as
    PCG64 does.
    """

    __slots__ = ("state", "inc", "half")

    def __init__(self, state: int, inc: int):
        self.state, self.inc, self.half = state, inc, None

    def next64(self) -> int:
        """One XSL-RR output of the stepped 128-bit state."""
        state = self.state = (self.state * _PCG_MULT + self.inc) & MASK128
        word, rot = ((state >> 64) ^ state) & MASK64, state >> 122
        return (word >> rot | word << (64 - rot)) & MASK64

    def next32(self) -> int:
        if self.half is not None:
            half, self.half = self.half, None
            return half
        word = self.next64()
        self.half = word >> 32
        return word & MASK32

    def random(self) -> float:
        """A float in [0, 1) from the top 53 bits of one output."""
        return (self.next64() >> 11) * (1.0 / 9007199254740992.0)

    def uniform(self, low: float, high: float) -> float:
        low, high = float(low), float(high)
        return low + (high - low) * self.random()

    def integers(self, low: int, high: int) -> int:
        """An integer in ``[low, high)``: Lemire's method with rejection, on
        32-bit draws when the range fits 32 bits."""
        span = high - 1 - low
        if span < 0:
            raise ValueError(f"low >= high in integers({low}, {high})")
        if span == 0:
            return low
        if span == MASK32:
            return low + self.next32()
        if span == MASK64:
            return low + self.next64()
        bits, draw = (32, self.next32) if span < MASK32 else (64, self.next64)
        mask, bound = (1 << bits) - 1, span + 1
        scaled = draw() * bound
        if scaled & mask < bound:
            threshold = (mask - span) % bound
            while scaled & mask < threshold:
                scaled = draw() * bound
        return low + (scaled >> bits)
