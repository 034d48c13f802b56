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
  which can lie below 1 - 2**-53, draws the index where the pmf underflows;
* a loop over replications 0..n-1 of one base seed builds its generators
  in one batch (`replication_rngs`): mix_seed runs over a uint64 array,
  and the words `SeedSequence(seed).generate_state(4, np.uint64)` gives
  each seed are hashed for all seeds at once. SeedSequence's hash
  constants do not depend on the seed, so the hash is a fixed sequence
  of array operations. PCG64 then seeds itself from those words as it
  does from a SeedSequence, so each generator streams bit for bit like
  `make_rng(mix_seed(base_seed, i))`. NEP 19 keeps SeedSequence and
  PCG64 streams stable across numpy versions;
* a loop that reads one uniform a replication builds no generator at
  all (`replication_uniforms`): PCG64 is a 128-bit LCG with a fixed
  output function (O'Neill 2014), so its seeding and first draw are a
  fixed sequence of integer operations, run on uint64 word pairs over
  all seeds at once. The count test's inversion path uses it; a loop
  whose replications read a varying number of uniforms (PTRS counts,
  `clustertess sample`, the occupation and intensity tests) keeps one
  generator a replication from `replication_rngs`.
"""

from __future__ import annotations

import math
from typing import Iterator, Union

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF

# mean at or below which Poisson counts are drawn by inversion
INVERSION_CUTOFF = 30.0


def splitmix64(x: int) -> int:
    """One splitmix64 avalanche step (Steele, Lea & Flood 2014); also
    elementwise over a uint64 array, whose arithmetic wraps mod 2**64."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def mix_seed(base_seed: int, index: int) -> int:
    """Derive the seed of replication `index` from a base seed.

    The outer splitmix64 avalanches all 64 bits, so consecutive indices
    give uncorrelated streams and distinct bases never collide in
    practice. `index` may be a uint64 array of indices.
    """
    return splitmix64((splitmix64(base_seed & _MASK64) + (index & _MASK64)) & _MASK64)


def make_rng(seed: Union[int, np.random.Generator]) -> np.random.Generator:
    """Uniform source for a given 64-bit seed (PCG64); a Generator is
    returned unchanged, as np.random.default_rng does."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.PCG64(seed & _MASK64))


# SeedSequence's hash (numpy/random/bit_generator.pyx) on a pool of four
# 32-bit words, run on a (4, n) array: column j is the pool of seed j.
# Its constants do not depend on the seed: the 16 hashmix calls of the
# pool use INIT_A * MULT_A**k for k = 0..16, and the 8 output words
# INIT_B * MULT_B**k for k = 0..8, all mod 2**32.
_HASH_A = np.array([0x43B0D7E5 * 0x931E8875**k & 0xFFFFFFFF for k in range(17)], dtype=np.uint32)[:, None]
_HASH_B = np.array([0x8B51F9DD * 0x58F38DED**k & 0xFFFFFFFF for k in range(9)], dtype=np.uint32)[:, None]
_MIX = np.array([0xCA01F9DD, 0x4973F715], dtype=np.uint32)
_SHIFT = np.uint32(16)
# seeds hashed per array pass; bounds the pass's memory
_BATCH = 4096


def _hashmix(value: np.ndarray, k: int, rows: int) -> np.ndarray:
    """SeedSequence's hashmix of `rows` words with the constants from
    _HASH_A[k] on, one constant further for each word."""
    value = (value ^ _HASH_A[k : k + rows]) * _HASH_A[k + 1 : k + rows + 1]
    return value ^ (value >> _SHIFT)


def _seed_words(seeds: np.ndarray) -> np.ndarray:
    """`SeedSequence(s).generate_state(4, np.uint64)` for each uint64
    seed s, as the rows of an (n, 4) array.

    SeedSequence's entropy is a seed's 32-bit words, low first; a pool
    word beyond them hashes a zero, so every seed is taken as four words,
    the upper two zero.
    """
    pool = np.zeros((4, len(seeds)), dtype=np.uint32)
    pool[0] = seeds & np.uint64(0xFFFFFFFF)
    pool[1] = seeds >> np.uint64(32)
    pool = _hashmix(pool, 0, 4)
    k = 4
    for src in range(4):  # mix every word into each of the other three
        dst = [d for d in range(4) if d != src]
        mixed = _MIX[0] * pool[dst] - _MIX[1] * _hashmix(pool[src], k, 3)
        pool[dst] = mixed ^ (mixed >> _SHIFT)
        k += 3
    state = (pool[[0, 1, 2, 3, 0, 1, 2, 3]] ^ _HASH_B[:8]) * _HASH_B[1:]
    state ^= state >> _SHIFT
    # little-endian word pairs: the even word is the low half
    words = state[0::2].astype(np.uint64) | state[1::2].astype(np.uint64) << np.uint64(32)
    return np.ascontiguousarray(words.T)  # PCG64 reads each row's memory as is


class _HashedSeed:
    """A seed's SeedSequence words, hashed in advance: PCG64 seeds itself
    from `generate_state(4, np.uint64)`, which returns them."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("pre-hashed seed words serve PCG64 only")
        return self.words


def _replication_seeds(base_seed: int, n: int) -> Iterator[np.ndarray]:
    """mix_seed(base_seed, i) for i = 0..n-1, as uint64 arrays of up to
    _BATCH seeds; a negative n is refused before the first batch."""
    if n < 0:
        raise ValueError(f"replication count must be nonnegative, got {n}")
    return (
        mix_seed(base_seed, np.arange(start, min(start + _BATCH, n), dtype=np.uint64))
        for start in range(0, n, _BATCH)
    )


def replication_rngs(base_seed: int, n: int) -> Iterator[np.random.Generator]:
    """The generators make_rng(mix_seed(base_seed, i)) for i = 0..n-1,
    bit for bit, with the seeds mixed and hashed in array passes."""
    # numpy.random loads on first use, as in make_rng, not on import;
    # PCG64 takes a seed object only if it is a registered ISeedSequence,
    # and registering again changes nothing
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_HashedSeed)
    return (
        np.random.Generator(np.random.PCG64(_HashedSeed(words)))
        for seeds in _replication_seeds(base_seed, n)
        for words in _seed_words(seeds)
    )


# PCG64 (O'Neill 2014) on (high, low) uint64 word pairs: its 128-bit LCG
# multiplier as two words, the low word also as its 32-bit halves, and
# the shift counts. Every constant is an np.uint64: a Python int mixed
# into a uint64 array can promote it to float64 under numpy < 2.
_PCG_MULT_HI = np.uint64(0x2360ED051FC65DA4)
_PCG_MULT_LO = np.uint64(0x4385DF649FCCF645)
_LO32 = np.uint64(0xFFFFFFFF)
_MULT_LO_HI, _MULT_LO_LO = _PCG_MULT_LO >> np.uint64(32), _PCG_MULT_LO & _LO32
_U = {k: np.uint64(k) for k in (1, 11, 32, 58, 63, 64)}


def _pcg_step(hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray):
    """One LCG step, state * multiplier + inc mod 2**128, on word pairs."""
    # the high word of lo * _PCG_MULT_LO, from 32-bit limb products
    lo_hi, lo_lo = lo >> _U[32], lo & _LO32
    t = lo_hi * _MULT_LO_LO + (lo_lo * _MULT_LO_LO >> _U[32])
    w = (t & _LO32) + lo_lo * _MULT_LO_HI
    lo_mult_hi = lo_hi * _MULT_LO_HI + (t >> _U[32]) + (w >> _U[32])
    hi = hi * _PCG_MULT_LO + lo * _PCG_MULT_HI + lo_mult_hi
    lo = lo * _PCG_MULT_LO
    return _add128(hi, lo, inc_hi, inc_lo)


def _add128(a_hi, a_lo, b_hi, b_lo):
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo).astype(np.uint64), lo


def replication_uniforms(base_seed: int, n: int) -> np.ndarray:
    """make_rng(mix_seed(base_seed, i)).random() for i = 0..n-1, bit for
    bit, without building a generator.

    PCG64 seeds itself from SeedSequence's words w0..w3 (`_seed_words`):
    initstate = w0 * 2**64 + w1 and inc = (w2 * 2**64 + w3) << 1 | 1; from
    state 0 it steps, adds initstate and steps again. A draw steps once
    more and outputs the XSL-RR of the state, rotr64(hi ^ lo, hi >> 58);
    random() keeps its top 53 bits. Seeds are processed _BATCH at a time.
    """
    parts = [np.empty(0)]
    for seeds in _replication_seeds(base_seed, n):
        w = _seed_words(seeds).T
        inc_hi = (w[2] << _U[1]) | (w[3] >> _U[63])
        inc_lo = (w[3] << _U[1]) | _U[1]
        hi, lo = _add128(inc_hi, inc_lo, w[0], w[1])  # the first step from state 0 gives inc
        hi, lo = _pcg_step(*_pcg_step(hi, lo, inc_hi, inc_lo), inc_hi, inc_lo)
        x, rot = hi ^ lo, hi >> _U[58]
        x = (x >> rot) | (x << ((_U[64] - rot) & _U[63]))
        parts.append((x >> _U[11]).astype(np.float64) * 2.0**-53)
    return np.concatenate(parts)


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
    return poisson_inversion(rng.random(size), mean)


def poisson_inversion(u: np.ndarray, mean: float) -> np.ndarray:
    """The counts inversion at 0 < mean <= INVERSION_CUTOFF gives the
    uniforms u: each u looked up in a table of the sequential search's
    sums, so each count is the scalar's bit for bit."""
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
