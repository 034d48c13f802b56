"""Point processes on bounded windows.

Configurations are finite multisets of points (atoms with integer
multiplicity) inside an axis-aligned box. Bounded windows stand in for
R^d: every consumer receives the window along with the points and has to
apply its own boundary rule.

All samplers are pure functions of (parameters, seed). A sampler also
takes a numpy Generator in place of the seed and draws from it as it is,
so a replication loop can hand over generators built in one batch
(`randomness.replication_rngs`, through `replicate`). The homogeneous
Poisson process at a mean of at most INVERSION_CUTOFF draws all its
replications from PCG64 lanes instead, with no generator built
(`poisson_homogeneous_replications`).

Atoms are kept in lexicographic order, which `canonical_atoms` finds
with one argsort of the first coordinate and a lexsort of the rows that
tie in it; `barycentre_shift` reads that order to sweep its sites along
the first coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import BallsOverlap, TooFewPoints
from .randomness import (
    INVERSION_CUTOFF,
    make_rng,
    poisson_count,
    poisson_counts,
    poisson_inversion,
    replication_batches,
    replication_rngs,
)

Seed = int


@dataclass(frozen=True)
class Window:
    """Axis-aligned box with an optional buffer margin.

    The buffer margin marks the zone near the boundary where extracted
    clusters are statistically unreliable; it is consumed by coverage
    estimation, not by the samplers themselves.
    """

    low: Tuple[float, ...]
    high: Tuple[float, ...]
    buffer_margin: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "low", tuple(float(c) for c in self.low))
        object.__setattr__(self, "high", tuple(float(c) for c in self.high))
        if len(self.low) != len(self.high) or not self.low:
            raise ValueError("window corners must share a positive dimension")
        low, high = np.array(self.low), np.array(self.high)
        with np.errstate(over="ignore", invalid="ignore"):  # a NaN or infinite result is refused below
            extent = high - low
            volume = float(np.prod(extent))
        # negated, so that NaN fails too
        if not extent.min() > 0.0:
            raise ValueError(f"window must satisfy low < high, got {self.low} .. {self.high}")
        if not np.isfinite([*self.low, *self.high, volume]).all():
            raise ValueError(f"window corners and volume must be finite, got {self.low} .. {self.high}")
        if not (self.buffer_margin >= 0.0 and 2.0 * self.buffer_margin < extent.min()):
            raise ValueError("buffer margin must be nonnegative and below half the smallest extent")
        # derived once; plain attributes, so not part of eq, hash or repr
        for name, arr in (("_low", low), ("_high", high), ("_extent", extent)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "_volume", volume)

    @property
    def dimension(self) -> int:
        return len(self.low)

    def extent(self) -> np.ndarray:
        return self._extent

    def volume(self) -> float:
        return self._volume

    def diameter(self) -> float:
        return float(np.linalg.norm(self.extent()))

    def erode(self, margin: float) -> "Window":
        return Window(
            tuple(l + margin for l in self.low),
            tuple(h - margin for h in self.high),
        )

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return ((pts >= self._low) & (pts <= self._high)).all(axis=1)

    def contains_ball(self, centers: np.ndarray, radii: np.ndarray) -> np.ndarray:
        """Whether each ball lies in the window; centers (..., d), radii (...)."""
        c = np.asarray(centers, dtype=float)
        r = np.asarray(radii, dtype=float)[..., None]
        return ((c - r >= self._low) & (c + r <= self._high)).all(axis=-1)

    def boundary_distance(self, points: np.ndarray) -> np.ndarray:
        """Distance of each point (..., d) to the window's boundary."""
        p = np.asarray(points, dtype=float)
        return np.minimum(p - self._low, self._high - p).min(axis=-1)


def canonical_atoms(
    points: Sequence[Sequence[float]],
    multiplicities: Optional[Sequence[int]],
    window: Window,
    sizes: Optional[Sequence[int]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """The (points, multiplicities) arrays of a configuration in `window`,
    in lexicographic point order, after PointConfiguration's checks: (n, d)
    points in the window, one positive multiplicity each (all one when
    None), and pairwise distinct points.

    With `sizes`, the rows are consecutive replications of sizes[r] atoms
    each, ordered by (replication, coordinates) at once, and only points
    within one replication must be distinct. The order comes from one
    argsort of the first coordinate (after the replication); only rows
    whose first coordinate ties with a neighbour's are lexsorted by the
    other coordinates, each run of ties on its own. The result is one
    full lexsort's, as the rows it could leave in either order are equal
    points, which raise. The returned arrays never share the caller's
    memory.
    """
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        pts = pts.reshape(0, window.dimension)
    if pts.ndim != 2 or pts.shape[1] != window.dimension:
        raise ValueError("points must be an (n, d) array matching the window dimension")
    if multiplicities is None:
        mult = np.ones(len(pts), dtype=np.int64)
    else:
        mult = np.asarray(multiplicities, dtype=np.int64)
        if mult.shape != (len(pts),) or (len(mult) and mult.min() < 1):
            raise ValueError("multiplicities must be positive, one per point")
    if len(pts) and not ((pts >= window._low) & (pts <= window._high)).all():
        raise ValueError("all points must lie inside the window")
    if len(pts) < 2:
        return pts.copy(), mult.copy()
    # any order of equal first coordinates will do: the tie pass below
    # settles it, and equal points raise
    order = np.argsort(pts[:, 0])
    if sizes is not None:
        # replication first, then rank by the first coordinate
        rep = np.repeat(np.arange(len(sizes)), sizes)
        rank = np.empty(len(pts), dtype=np.int64)
        rank[order] = np.arange(len(pts))
        order = np.argsort(rep * len(pts) + rank)
    pts, mult = pts.take(order, axis=0), mult[order]  # take: a fraction of fancy indexing's time on rows
    # rows tied with the next one: same first coordinate (and replication;
    # rep is sorted already, as it is the primary key)
    tie = pts[1:, 0] == pts[:-1, 0]
    if sizes is not None:
        tie &= rep[1:] == rep[:-1]
    pair = np.flatnonzero(tie)
    if len(pair):
        # only tied rows need the other coordinates: one lexsort keyed by
        # (run of ties, coordinates 1..d-1) orders every run, stably
        rows = np.union1d(pair, pair + 1)
        run = np.cumsum(~np.isin(rows - 1, pair))
        sub = rows[np.lexsort((*pts[rows, 1:].T[::-1], run))]
        pts[rows], mult[rows] = pts[sub], mult[sub]
        if (pts[pair + 1] == pts[pair]).all(axis=1).any():
            raise ValueError("points must be pairwise distinct")
    return pts, mult


class PointConfiguration:
    """Finite point configuration: atoms with multiplicities in a window.

    Atoms are stored in lexicographic order, which makes configurations
    canonical: equal inputs compare equal and serialize identically. The
    order and the checks are `canonical_atoms` on one replication.
    """

    __slots__ = ("points", "multiplicities", "window", "_hash")

    def __init__(
        self,
        points: Sequence[Sequence[float]],
        multiplicities: Optional[Sequence[int]] = None,
        window: Window = None,
    ):
        if window is None:
            raise ValueError("a point configuration needs its window")
        pts, mult = canonical_atoms(points, multiplicities, window)
        pts.setflags(write=False)
        mult.setflags(write=False)
        self.points = pts
        self.multiplicities = mult
        self.window = window
        self._hash = None

    @property
    def dimension(self) -> int:
        return self.window.dimension

    @property
    def n_atoms(self) -> int:
        return len(self.points)

    @property
    def total_count(self) -> int:
        return int(self.multiplicities.sum())

    @property
    def is_simple(self) -> bool:
        return bool(np.all(self.multiplicities == 1))

    def __len__(self) -> int:
        return self.n_atoms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PointConfiguration)
            and self.window == other.window
            and np.array_equal(self.points, other.points)
            and np.array_equal(self.multiplicities, other.multiplicities)
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(
                (self.window, self.points.tobytes(), self.multiplicities.tobytes())
            )
        return self._hash

    def __repr__(self) -> str:
        return f"PointConfiguration({self.n_atoms} atoms, window {self.window.low}..{self.window.high})"


# signature of the pluggable process samplers consumed elsewhere
ProcessSampler = Callable[[Window, Seed], PointConfiguration]


@dataclass(frozen=True, eq=False)
class DiscreteIntensity:
    """Intensity measure with mass c at each of finitely many sites.

    `sites` is kept as a read-only (n, d) float array, a copy of what was
    passed. Equality and hash read its shape and bytes and c, so sites
    that differ only in the sign of a zero differ; repr shows the sites
    as a tuple of tuples.
    """

    sites: np.ndarray
    c: float

    def __post_init__(self):
        # a copy, so that freezing it leaves a caller's array writable
        sites = np.array(self.sites, dtype=float)
        if self.c <= 0.0:
            raise ValueError(f"per-site mass must be positive, got {self.c}")
        if len(sites) > 1:
            # one sort of the first coordinates finds the sites that share
            # one; only those can be equal, and lexicographic order puts
            # equal ones next to each other
            first = np.sort(sites[:, 0])
            tied = sites[np.isin(sites[:, 0], first[1:][first[1:] == first[:-1]])]
            tied = tied[np.lexsort(tied.T[::-1])]
            if (tied[1:] == tied[:-1]).all(axis=1).any():
                raise ValueError("intensity sites must be pairwise distinct")
        sites.setflags(write=False)
        object.__setattr__(self, "sites", sites)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DiscreteIntensity)
            and self.sites.shape == other.sites.shape
            and self.sites.tobytes() == other.sites.tobytes()
            and self.c == other.c
        )

    def __hash__(self) -> int:
        return hash((self.sites.shape, self.sites.tobytes(), self.c))

    def __repr__(self) -> str:
        return f"DiscreteIntensity(sites={tuple(map(tuple, self.sites.tolist()))!r}, c={self.c!r})"


def sample_poisson_homogeneous(
    lam: float, window: Window, seed: Union[Seed, np.random.Generator]
) -> PointConfiguration:
    """Homogeneous Poisson process with intensity lam on the window.

    The total count is Poisson(lam * volume); given the count, points
    are independent and uniform. All multiplicities are one.
    """
    return PointConfiguration(*poisson_homogeneous_atoms(lam, window, seed), window)


def poisson_homogeneous_atoms(
    lam: float, window: Window, seed: Union[Seed, np.random.Generator]
) -> Tuple[np.ndarray, np.ndarray]:
    """The points sample_poisson_homogeneous draws, in draw order, and
    their multiplicities, all one."""
    if lam <= 0.0:
        raise ValueError(f"intensity must be positive, got {lam}")
    rng = make_rng(seed)
    n = poisson_count(rng, lam * window.volume())
    return window._low + rng.random((n, window.dimension)) * window._extent, np.ones(n, dtype=np.int64)


def poisson_homogeneous_replications(
    lam: float, window: Window, base_seed: Seed, n: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`replicate` of poisson_homogeneous_atoms: the draws of replications
    0..n-1 bit for bit, stacked.

    For 0 < lam * volume <= INVERSION_CUTOFF no generator is built: each
    replication's PCG64 stream runs as a lane of `replication_batches`,
    whose first draw gives the count through the inversion table and
    whose next count * d draws the coordinates, in the order
    `rng.random((count, d))` reads them. Larger means keep one generator
    a replication, as PTRS reads a varying number of uniforms.
    """
    mean = lam * window.volume()
    if not 0.0 < mean <= INVERSION_CUTOFF:  # PTRS, or the sampler's own ValueError
        return replicate(partial(poisson_homogeneous_atoms, lam, window), window.dimension, base_seed, n)
    points, sizes = [np.zeros((0, window.dimension))], [np.zeros(0, dtype=np.int64)]
    for batch in replication_batches(base_seed, n):
        counts = poisson_inversion(batch.random(1), mean)
        u = batch.random(counts * window.dimension).reshape(-1, window.dimension)
        points.append(window._low + u * window._extent)
        sizes.append(counts)
    points, sizes = np.concatenate(points), np.concatenate(sizes)
    return points, np.ones(len(points), dtype=np.int64), sizes


def replicate(
    draw: Callable[[np.random.Generator], Tuple[np.ndarray, np.ndarray]], dimension: int, base_seed: Seed, n: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """draw(make_rng(mix_seed(base_seed, i))) for i = 0..n-1, with the
    generators built in one batch (`replication_rngs`): the (points,
    multiplicities) of every replication stacked, and the atom count of
    each. A negative n is refused before the first draw."""
    draws = [draw(rng) for rng in replication_rngs(base_seed, n)]
    points = np.concatenate([np.zeros((0, dimension)), *(p for p, _ in draws)])
    mult = np.concatenate([np.zeros(0, dtype=np.int64), *(m for _, m in draws)])
    return points, mult, np.array([len(m) for _, m in draws], dtype=np.int64)


def sample_poisson_discrete(
    rho: DiscreteIntensity, seed: Union[Seed, np.random.Generator], window: Optional[Window] = None
) -> PointConfiguration:
    """Poisson process with discrete intensity: site e carries an
    independent Poisson(c) multiplicity, zero-count sites are omitted."""
    if window is None:
        window = _bounding_window(rho.sites)
    return PointConfiguration(*poisson_discrete_atoms(rho, seed), window)


def poisson_discrete_atoms(
    rho: DiscreteIntensity, seed: Union[Seed, np.random.Generator]
) -> Tuple[np.ndarray, np.ndarray]:
    """The occupied sites and their counts that sample_poisson_discrete
    draws, in site order."""
    counts = poisson_counts(make_rng(seed), rho.c, len(rho.sites))
    keep = counts > 0
    return rho.sites[keep], counts[keep]


def _bounding_window(sites: np.ndarray, pad: float = 0.5) -> Window:
    if len(sites) == 0:
        raise ValueError("cannot derive a window from zero sites; pass one explicitly")
    low = sites.min(axis=0) - pad
    high = sites.max(axis=0) + pad
    return Window(tuple(low), tuple(high))


def support(eta: PointConfiguration) -> PointConfiguration:
    """Forget multiplicities: same point set, every atom counted once."""
    return PointConfiguration(eta.points, None, eta.window)


def deterministic_lattice(sites: Sequence[Sequence[float]], window: Window) -> PointConfiguration:
    """The process that produces exactly these sites, with probability one."""
    return PointConfiguration(np.asarray(sites, dtype=float).reshape(-1, window.dimension), None, window)


def min_pairwise_distance(points: Sequence[Sequence[float]]) -> float:
    """`pdist(points).min()` without the O(n^2) array: the pairs near the
    nearest-neighbour minimum are measured with pdist's formula."""
    from scipy.spatial import cKDTree

    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if len(pts) < 2:
        raise TooFewPoints("need at least two points for a pairwise distance")
    tree = cKDTree(pts)
    r = tree.query(pts, k=2)[0][:, 1].min()
    i, j = tree.query_pairs(r * (1.0 + 1e-9), output_type="ndarray").T
    return float(np.sqrt(((pts[i] - pts[j]) ** 2).sum(axis=1)).min())


def barycentre_shift(
    eta: PointConfiguration, sites: Sequence[Sequence[float]], epsilon: float
) -> PointConfiguration:
    """Replace the points near each site by their barycentre.

    Each site e receives the multiplicity-weighted barycentre of the
    atoms in the open ball B_eps(e), or e itself when that ball is
    empty. Requires 2*epsilon below the minimal site spacing so the
    balls cannot intersect; the output then has exactly one point per
    site, each within epsilon of its site.

    eta's atoms are sorted by their first coordinate (canonical order),
    so two binary searches give each site the atoms whose first
    coordinate lies within epsilon of its own, a hair more so that
    rounding cannot drop one; only those pairs are measured.
    """
    site_arr = np.atleast_2d(np.asarray(sites, dtype=float))
    if site_arr.size == 0:  # no site, no output point
        site_arr = site_arr.reshape(0, eta.dimension)
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    if len(site_arr) >= 2 and 2.0 * epsilon >= min_pairwise_distance(site_arr):
        raise BallsOverlap(
            f"2*epsilon = {2 * epsilon} reaches the minimal site spacing"
        )
    out = site_arr.copy()
    x = eta.points[:, 0]
    reach = epsilon * (1.0 + 1e-9)
    first = np.searchsorted(x, site_arr[:, 0] - reach, side="left")
    counts = np.searchsorted(x, site_arr[:, 0] + reach, side="right") - first
    kept_site, kept_atom = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    for block in _blocks(counts, _SHIFT_BLOCK):
        site = np.repeat(np.arange(block.start, block.stop), counts[block])
        atom = _ranges(first[block], counts[block])
        near = np.sqrt(((eta.points[atom] - site_arr[site]) ** 2).sum(axis=1)) < epsilon  # open ball
        kept_site.append(site[near])
        kept_atom.append(atom[near])
    site, atom = np.concatenate(kept_site), np.concatenate(kept_atom)
    if len(atom):
        # a point lies in one ball at most, and each site's atoms come in
        # ascending order, so each site sums its points in that order
        weights = eta.multiplicities[atom].astype(float)
        sums = np.zeros_like(site_arr)
        np.add.at(sums, site, eta.points[atom] * weights[:, None])
        totals = np.zeros(len(site_arr))
        np.add.at(totals, site, weights)
        hit = totals > 0
        out[hit] = sums[hit] / totals[hit, None]
    return PointConfiguration(out, None, eta.window)


# site-atom pairs measured per array pass of barycentre_shift; bounds its memory
_SHIFT_BLOCK = 1 << 20


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The concatenation of arange(s, s + n) over (s, n) in zip(starts, counts)."""
    offsets = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    return offsets + np.repeat(starts, counts)


def _blocks(counts: np.ndarray, cap: int):
    """Consecutive slices of `counts` whose sums stay within cap; a
    single count above cap forms a block of its own."""
    ends = np.cumsum(counts)
    start = 0
    while start < len(counts):
        base = ends[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, base + cap, side="right")))
        yield slice(start, stop)
        start = stop
