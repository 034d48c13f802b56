"""Statistical verification harness.

The distributional claims behind the samplers and extractors are
checked with finite-sample hypothesis tests. Two package-wide
constants fix the tolerances: acceptance bands are SIGMA_BAND standard
errors wide (4 sigma; CI flakiness costs more than lost power at desk
scale), and goodness-of-fit tests run at CHI2_SIGNIFICANCE with bins
pooled to an expected count of at least CHI2_MIN_EXPECTED.

Every test derives its replication seeds from the given base seed, so
rerunning with the same arguments reproduces the report bit for bit.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .clusterprops import ClusterProperty, extract_clusters
from .cutproject import Chain, decompose_length
from .errors import AmbiguousDecomposition
from .pointproc import DiscreteIntensity, ProcessSampler, Window, sample_poisson_discrete, sample_poisson_homogeneous
from .randomness import mix_seed, poisson_count, replication_rngs

SIGMA_BAND = 4.0
CHI2_SIGNIFICANCE = 1e-3
CHI2_MIN_EXPECTED = 5.0


@dataclass
class TestReport:
    name: str
    statistic: float
    threshold: float
    n_samples: int
    passed: bool
    details: str = ""

    def __post_init__(self):
        if self.passed != (self.statistic <= self.threshold):
            raise ValueError("passed must mean statistic within threshold")


def _poisson_pmf(mean: float, k: int) -> float:
    return math.exp(k * math.log(mean) - mean - math.lgamma(k + 1)) if mean > 0 else float(k == 0)


def _pool_bins(observed: List[float], expected: List[float]) -> Tuple[List[float], List[float]]:
    """Merge adjacent bins until every expected count reaches the
    validity floor; a trailing underfull remainder joins the last bin."""
    obs_out: List[float] = []
    exp_out: List[float] = []
    acc_o = acc_e = 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= CHI2_MIN_EXPECTED:
            obs_out.append(acc_o)
            exp_out.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0.0:
        if exp_out:
            obs_out[-1] += acc_o
            exp_out[-1] += acc_e
        else:
            obs_out.append(acc_o)
            exp_out.append(acc_e)
    return obs_out, exp_out


def chi2_threshold(dof: int) -> float:
    """`chi2.ppf(1 - CHI2_SIGNIFICANCE, dof)` bit for bit, without importing scipy.stats."""
    from scipy.special import gammaincinv

    return float(2.0 * gammaincinv(dof / 2, 1.0 - CHI2_SIGNIFICANCE))


def poisson_chi_square(counts: Sequence[int], mean: float) -> Tuple[float, float, int]:
    """Chi-square GOF statistic of observed counts against Poisson(mean).

    Returns (statistic, threshold at CHI2_SIGNIFICANCE, degrees of freedom).
    """
    n = len(counts)
    kmax = max(counts)
    hist = Counter(counts)
    observed = [float(hist.get(k, 0)) for k in range(kmax + 1)]
    expected = [n * _poisson_pmf(mean, k) for k in range(kmax + 1)]
    # tail bin for k > kmax
    tail = n * max(0.0, 1.0 - sum(_poisson_pmf(mean, k) for k in range(kmax + 1)))
    observed.append(0.0)
    expected.append(tail)
    obs, exp = _pool_bins(observed, expected)
    dof = max(1, len(obs) - 1)
    stat = sum((o - e) ** 2 / e for o, e in zip(obs, exp))
    threshold = chi2_threshold(dof)
    return stat, threshold, dof


def poisson_count_test(
    lam: float,
    window: Window,
    n_reps: int,
    seed: int,
    sampler: Optional[ProcessSampler] = None,
) -> TestReport:
    """Chi-square GOF of replicated total counts against the Poisson law.

    `sampler` defaults to the homogeneous Poisson sampler with intensity
    lam; passing a different process shows the test rejecting it, and
    it gets the int seeds mix_seed(seed, i). The default draws each
    replication's count alone, from generators built in one batch
    (`replication_rngs`): the count is the sampler's first draw, so the
    counts are the sampler's bit for bit.
    """
    if n_reps < 1000:
        raise ValueError("need at least 1000 replications for the count GOF test")
    mean = lam * window.volume()
    if sampler is not None:
        counts = [sampler(window, mix_seed(seed, i)).total_count for i in range(n_reps)]
    elif lam > 0.0:
        counts = [poisson_count(rng, mean) for rng in replication_rngs(seed, n_reps)]
    else:
        raise ValueError(f"intensity must be positive, got {lam}")
    stat, threshold, dof = poisson_chi_square(counts, mean)
    return TestReport(
        name=f"poisson_count(lam={lam})",
        statistic=stat,
        threshold=threshold,
        n_samples=n_reps,
        passed=stat <= threshold,
        details=f"chi-square with {dof} dof at significance {CHI2_SIGNIFICANCE}",
    )


def occupation_test(c: float, n_sites: int, n_reps: int, seed: int) -> TestReport:
    """Occupied-site fraction of the thinned lattice field against
    1 - exp(-c), within SIGMA_BAND binomial standard errors."""
    if n_sites * n_reps < 10_000:
        raise ValueError("need n_sites * n_reps >= 10000")
    sites = tuple((float(i),) for i in range(n_sites))
    rho = DiscreteIntensity(sites, c)
    window = Window((-1.0,), (float(n_sites),))
    occupied = 0
    for rng in replication_rngs(seed, n_reps):
        occupied += sample_poisson_discrete(rho, rng, window=window).n_atoms
    fraction = occupied / (n_sites * n_reps)
    target = 1.0 - math.exp(-c)
    se = math.sqrt(target * (1.0 - target) / (n_sites * n_reps))
    if se == 0.0:
        stat = 0.0 if fraction == target else math.inf
    else:
        stat = abs(fraction - target) / se
    return TestReport(
        name=f"occupation(c={c})",
        statistic=stat,
        threshold=SIGMA_BAND,
        n_samples=n_sites * n_reps,
        passed=stat <= SIGMA_BAND,
        details=f"fraction {fraction:.6f} vs target {target:.6f} (se {se:.2e})",
    )


def _border_corrected_rate(radii: np.ndarray, window: Window) -> float:
    """Cluster intensity estimate for one replication, from the
    certainty radii of its boundary-certain clusters, in cluster order.

    Each cluster is weighted by the reciprocal volume of the window
    eroded by its radius (minus sampling with Horvitz-Thompson weights),
    nothing where that erosion leaves no volume; the estimate is then
    free of the window-size bias that raw certain-count / volume rates
    have. The weights add left to right, in cluster order.
    """
    eroded = window.extent() - 2.0 * radii[:, None]
    weights = 1.0 / np.prod(eroded[(eroded > 0.0).all(axis=1)], axis=1)
    return float(np.cumsum(weights)[-1]) if len(weights) else 0.0


def cluster_intensity_scan(
    prop: ClusterProperty,
    lam: float,
    window_sizes: Sequence[float],
    n_reps: int,
    seed: int,
    dimension: int = 2,
) -> TestReport:
    """Stationarity proxy for the zero-or-infinity law.

    Estimates the boundary-corrected certain-cluster intensity on
    windows of several sizes (`_border_corrected_rate`; without
    certainty radii, the raw certain count per volume); the per-volume
    rates must agree pairwise within SIGMA_BAND combined standard
    errors. An unsatisfiable property passes with identically zero
    rates (the "or none" branch).
    """
    if len(window_sizes) < 3:
        raise ValueError("need at least three window sizes")
    if n_reps < 2:
        raise ValueError("need at least two replications per window size")
    means: List[float] = []
    ses: List[float] = []
    rngs = replication_rngs(seed, len(window_sizes) * n_reps)
    for size in window_sizes:
        window = Window((0.0,) * dimension, (float(size),) * dimension)
        rates = []
        for _ in range(n_reps):
            eta = sample_poisson_homogeneous(lam, window, next(rngs))
            certain = extract_clusters(prop, eta).certain()
            if certain.certainty_radii is None:
                rates.append(len(certain) / window.volume())
            else:
                rates.append(_border_corrected_rate(certain.certainty_radii, window))
        means.append(float(np.mean(rates)))
        ses.append(float(np.std(rates, ddof=1) / math.sqrt(n_reps)))
    worst = 0.0
    for i in range(len(means)):
        for j in range(i + 1, len(means)):
            combined = math.hypot(ses[i], ses[j])
            diff = abs(means[i] - means[j])
            if combined == 0.0:
                z = 0.0 if diff == 0.0 else math.inf
            else:
                z = diff / combined
            worst = max(worst, z)
    details = ", ".join(
        f"side {s}: {m:.4f} +- {e:.4f}" for s, m, e in zip(window_sizes, means, ses)
    )
    return TestReport(
        name=f"cluster_intensity_scan({prop.name})",
        statistic=worst,
        threshold=SIGMA_BAND,
        n_samples=n_reps * len(window_sizes),
        passed=worst <= SIGMA_BAND,
        details=details,
    )


@dataclass
class TileHistogram:
    """Tile lengths classified as n + m*sqrt(2).

    `undecomposed` collects lengths no pair matches; `ambiguous` collects
    lengths where the tolerance admits more than one pair."""

    counts: Dict[Tuple[int, int], int] = field(default_factory=dict)
    undecomposed: Tuple[float, ...] = ()
    ambiguous: Tuple[float, ...] = ()

    @property
    def total(self) -> int:
        return sum(self.counts.values()) + len(self.undecomposed) + len(self.ambiguous)


def tile_length_histogram(chain: Chain, tol: float) -> TileHistogram:
    """Classify the chain's tiles in order, decomposing each distinct length once."""
    counts: Counter = Counter()
    undecomposed: List[float] = []
    ambiguous: List[float] = []
    outcomes: Dict[float, object] = {}
    for length in chain.tiles:
        if length not in outcomes:
            try:
                outcomes[length] = decompose_length(length, int(math.ceil(length + tol)) + 1, tol)
            except AmbiguousDecomposition:
                outcomes[length] = "ambiguous"
        pair = outcomes[length]
        if pair == "ambiguous":
            ambiguous.append(length)
        elif pair is None:
            undecomposed.append(length)
        else:
            counts[pair] += 1
    return TileHistogram(dict(sorted(counts.items())), tuple(undecomposed), tuple(ambiguous))
