"""Seed derivation helpers.

All randomness in this package flows through explicit integer seeds.  So
that independent pipeline stages (and independent draws inside a stage)
get uncorrelated streams without sharing generator state, seeds are
derived with splitmix64, a 64-bit mixing bijection with strong avalanche
behaviour.  Derived seeds are random-access: stream i of a base seed does
not depend on whether streams 0..i-1 were ever drawn.
"""

from __future__ import annotations

import functools

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
