"""Seeded randomness kernel.

Every sampler in the package draws its randomness through this module so
that results are a pure function of (parameters, seed):

* replication seeds are derived with a splitmix64 avalanche mix, so
  parallel replications never share a stream;
* Poisson counts use a fixed pair of algorithms (sequential-search
  inversion for small means, Hoermann's PTRS transformed rejection for
  large ones) instead of whatever the underlying library happens to ship;
  batches at one small mean look uniforms up in a table of the scalar's
  sums (Devroye 1986, ch. III.2); a uniform above the table's ceiling,
  which can lie below 1 - 2**-53, draws the index where the pmf underflows.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF

# mean at or below which Poisson counts are drawn by inversion
INVERSION_CUTOFF = 30.0


def splitmix64(x: int) -> int:
    """One splitmix64 avalanche step (Steele, Lea & Flood 2014)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def mix_seed(base_seed: int, index: int) -> int:
    """Derive the seed of replication `index` from a base seed.

    The outer splitmix64 avalanches all 64 bits, so consecutive indices
    give uncorrelated streams and distinct bases never collide in
    practice.
    """
    return splitmix64((splitmix64(base_seed & _MASK64) + (index & _MASK64)) & _MASK64)


def make_rng(seed: int) -> np.random.Generator:
    """Uniform source for a given 64-bit seed (PCG64)."""
    return np.random.Generator(np.random.PCG64(seed & _MASK64))


def poisson_count(rng: np.random.Generator, mean: float) -> int:
    """Draw one Poisson(mean) variate.

    Inversion by sequential search for mean <= INVERSION_CUTOFF,
    otherwise the PTRS transformed-rejection sampler. The split is fixed
    so that a seed always consumes uniforms the same way.
    """
    if not mean >= 0.0:
        raise ValueError(f"Poisson mean must be nonnegative, got {mean}")
    if mean == 0.0:
        return 0
    if mean <= INVERSION_CUTOFF:
        return _poisson_inversion(rng, mean)
    return _poisson_ptrs(rng, mean)


def poisson_counts(rng: np.random.Generator, mean: float, size: int) -> np.ndarray:
    """`size` calls of poisson_count at once: same draws, same uniforms."""
    if not 0.0 < mean <= INVERSION_CUTOFF:  # PTRS, zero, or the scalar's ValueError
        return np.array([poisson_count(rng, mean) for _ in range(size)], dtype=np.int64)
    u = rng.random(size)
    top, p = u.max(initial=0.0), math.exp(-mean)
    cum = [p]  # the scalar search's sums, until they reach top or the pmf underflows
    while cum[-1] < top and (p := p * (mean / len(cum))) > 0.0:
        cum.append(cum[-1] + p)
    return np.searchsorted(cum, u, side="left").astype(np.int64)


def _poisson_inversion(rng: np.random.Generator, mean: float) -> int:
    u = rng.random()
    k = 0
    p = math.exp(-mean)
    cum = p
    while u > cum and p > 0.0:
        k += 1
        p *= mean / k
        cum += p
    return k


def _poisson_ptrs(rng: np.random.Generator, mean: float) -> int:
    # Hoermann (1993), "The transformed rejection method for generating
    # Poisson random variables", algorithm PTRS. Valid for mean >= 10.
    log_mean = math.log(mean)
    b = 0.931 + 2.53 * math.sqrt(mean)
    a = -0.059 + 0.02483 * b
    inv_alpha = 1.1239 + 1.1328 / (b - 3.4)
    v_r = 0.9277 - 3.6224 / (b - 2.0)
    while True:
        u = rng.random() - 0.5
        v = rng.random()
        us = 0.5 - abs(u)
        k = math.floor((2.0 * a / us + b) * u + mean + 0.43)
        if us >= 0.07 and v <= v_r:
            return int(k)
        if k < 0 or (us < 0.013 and v > us):
            continue
        if math.log(v) + math.log(inv_alpha) - math.log(a / (us * us) + b) <= (
            k * log_mean - mean - math.lgamma(k + 1.0)
        ):
            return int(k)
