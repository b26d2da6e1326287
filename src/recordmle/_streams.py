"""Deterministic splittable random streams.

A stream is addressed by a pair of 64-bit integers ``(seed, stream)``. The
stream id is folded into the seed with SplitMix64, a bijective 64-bit
finalizer with good avalanche behaviour, and the mixed value seeds numpy's
PCG64. Two properties matter here:

* determinism: the same ``(seed, stream)`` pair always yields the same
  uniform sequence, on every platform numpy supports;
* splittability: distinct stream ids give statistically independent
  generators without any coordination, which is what lets Monte Carlo
  blocks run on any number of workers and still merge to identical sums.

Downstream code consumes ``Generator.random`` (uniform doubles) and makes
non-uniform variates by explicit inverse-CDF transforms, save one: the Monte
Carlo ``records_direct`` source draws A(R_m) with ``standard_gamma``. So the
draw layout is fully specified by this module plus the caller's shapes.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

# SplitMix64 constants (Steele, Lea, Flood 2014).
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def splitmix64(z: int) -> int:
    """One SplitMix64 output step applied to the 64-bit value ``z``."""
    z = (z + _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def mix_seed_stream(seed: int, stream: int) -> int:
    """Derive the 64-bit PCG64 seed for the pair ``(seed, stream)``.

    The seed is whitened first so that small consecutive seeds do not
    produce correlated states, then the stream id is xor-folded and
    whitened again. Collisions between distinct pairs occur with
    probability about 2**-64, the level the block-partition contract of
    the Monte Carlo engine relies on.
    """
    return splitmix64(splitmix64(seed & _MASK64) ^ (stream & _MASK64))


def make_generator(seed: int, stream: int = 0) -> np.random.Generator:
    """PCG64 generator bound to ``(seed, stream)``."""
    return np.random.Generator(np.random.PCG64(mix_seed_stream(seed, stream)))


def as_generator(rng_stream) -> np.random.Generator:
    """Coerce a stream address into a generator.

    Accepts an existing ``numpy.random.Generator`` (used as-is), an integer
    seed (stream 0), or a ``(seed, stream)`` pair.
    """
    if isinstance(rng_stream, np.random.Generator):
        return rng_stream
    if isinstance(rng_stream, (int, np.integer)):
        return make_generator(int(rng_stream), 0)
    seed, stream = rng_stream
    return make_generator(int(seed), int(stream))
